"""qhs: exact Weingarten calculus over the six easy partition categories and
their affine homogeneous spaces, with brute-force finite-group oracles.

The modules are the API (``from qhs.weingarten import integrate_X``); the
package root exports only ``__version__``, so importing one module loads
only what that module uses."""

__version__ = "0.1.0"
