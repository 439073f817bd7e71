"""Seeded input generators for the three benchmark workloads.

Each workload draws its requests from a fixed pool.  The pools are built
from POOL_SEED, so they are part of the benchmark's definition and the
golden answers in golden.json cover every request a seed can produce.  The
run's --seed only chooses which pool entries are sent and in what order;
the mix of request classes is the same for every seed, so runs with
different seeds do the same amount of work.

qhs never sees the seed: it receives only the argv lists (cold-cli) or the
call arguments (warm-moments, oracle-checks) built here.
"""

from __future__ import annotations

import random
from itertools import combinations, product

POOL_SEED = 20171017
CLI_VARIANTS = 6  # pool entries per cold-cli request class
MOMENT_VARIANTS = 64  # pool entries per warm-moments stratum
STREAM_LENGTH = 19_000  # warm-moments queries in one pass of the stream
# The percentile each workload reports as tail_ms, chosen to keep at least ten
# samples beyond it: 100+ requests, chunks of 1,000 queries, 150+ checks.
TAIL_PERCENTILE = {"cold-cli": 90, "warm-moments": 99, "oracle-checks": 90}

# cold-cli request classes: (command, family, N, k, |I|, form).  k is the word
# length for integrate-g/-x and --max-k for relations.  All stay inside the
# README's desk scale (N <= 6, k <= 6).  Every class appears once per cycle.
# The last four are the heavy Gram builds: three S+(5), k=5 requests make up
# 12% of the cycle, so the p90 latency falls in the middle of their group, and
# the S(5), k=5 build, the heaviest, sits above it.
CLI_CLASSES = (
    ("integrate-g", "S", 4, 3, 0, ""),
    ("integrate-g", "S", 6, 4, 0, ""),
    ("integrate-g", "S+", 4, 4, 0, ""),
    ("integrate-g", "O", 6, 4, 0, ""),
    ("integrate-g", "O+", 6, 6, 0, ""),
    ("integrate-g", "U", 4, 4, 0, ""),
    ("integrate-g", "U+", 6, 6, 0, ""),
    ("integrate-g", "O", 4, 6, 0, ""),
    ("integrate-x", "S", 5, 4, 2, ""),
    ("integrate-x", "S+", 4, 4, 2, ""),
    ("integrate-x", "O", 5, 6, 2, ""),
    ("integrate-x", "O+", 5, 4, 3, ""),
    ("integrate-x", "U", 4, 4, 2, ""),
    ("integrate-x", "U+", 4, 6, 2, ""),
    ("relations", "S", 4, 3, 2, "med"),
    ("relations", "S", 4, 3, 2, "max"),
    ("relations", "S", 4, 2, 2, "hom"),
    ("relations", "O", 5, 4, 2, "med"),
    ("relations", "U", 3, 3, 1, "max"),
    ("relations", "U+", 3, 3, 1, "hom"),
    ("relations", "O+", 4, 2, 2, "hom"),
    ("integrate-g", "S+", 5, 5, 0, ""),
    ("integrate-g", "S+", 5, 5, 0, ""),
    ("integrate-g", "S+", 5, 5, 0, ""),
    ("integrate-g", "S", 5, 5, 0, ""),
)

# warm-moments specs and their largest word length.
MOMENT_SPECS = (
    ("S", 4, 4),
    ("S+", 4, 4),
    ("O", 4, 6),
    ("O+", 4, 6),
    ("U", 3, 6),
    ("U+", 3, 6),
)

# The index sets I (0-based) of the warm-moments integrate_X queries.
MOMENT_INDEX_SETS = ((0, 1), (0, 1, 2))

# oracle-checks batch.  Relation systems (family, N, oracle literal, |I|),
# each checked in med, max and hom form at max-k 3, max-l 2.
RELATION_CASES = (
    ("S", 4, "SN(4)", 2),
    ("S", 3, "SN(3)", 2),
    ("O", 4, "HN(4)", 2),
    ("O+", 4, "HN(4)", 2),
    ("U", 3, "dualZ2(3)", 1),
    ("U+", 3, "dualS3(12,13,23)", 1),
)
# saturation_report cases (oracle literal, N, |I|, bound).
SATURATION_CASES = (
    ("SN(3)", 3, 2, 3),
    ("HN(3)", 3, 2, 3),
    ("SN(4)", 4, 2, 2),
    ("dualZ2(3)", 3, 1, 2),
    ("dualS3(12,13,23)", 3, 1, 2),
)
# ergodicity_check cases (family, N, max word length); one check per length.
ERGODICITY_CASES = (
    ("S", 4, 4),
    ("S+", 4, 3),
    ("O", 4, 4),
    ("O+", 4, 4),
    ("U", 3, 4),
    ("U+", 3, 4),
)
ORACLE_LITERALS = ("SN(4)", "SN(3)", "HN(4)", "HN(3)", "dualZ2(3)", "dualS3(12,13,23)")


def spec_text(family: str, n: int) -> str:
    return f"{family}({n})"


def self_conjugate(family: str) -> bool:
    """Colors are invisible to these families (gen.py does not import qhs)."""
    return family in ("S", "O", "S+", "O+")


def _word(rng: random.Random, family: str, k: int, balanced: bool) -> str:
    """A colored word; balanced U words have as many o as b (k even)."""
    if family in ("U", "U+") and balanced:
        letters = list("o" * (k // 2) + "b" * (k - k // 2))
        rng.shuffle(letters)
        return "".join(letters)
    return "".join(rng.choice("ob") for _ in range(k))


def _multi_index(rng: random.Random, n: int, k: int) -> tuple:
    return tuple(rng.randrange(n) for _ in range(k))


def _one_based(idx) -> str:
    return ",".join(str(i + 1) for i in idx)


def _cli_argv(rng: random.Random, cls: tuple) -> list:
    command, family, n, k, i_size, form = cls
    spec = spec_text(family, n)
    if command == "relations":
        members = sorted(rng.sample(range(n), i_size))
        return [command, "--form", form, "--spec", spec, "--I", _one_based(members),
                "--max-k", str(k)]
    word = _word(rng, family, k, balanced=True)
    if command == "integrate-g":
        return [command, "--spec", spec, "--word", word,
                "--row", _one_based(_multi_index(rng, n, k)),
                "--col", _one_based(_multi_index(rng, n, k))]
    members = sorted(rng.sample(range(n), i_size))
    return [command, "--spec", spec, "--I", _one_based(members), "--word", word,
            "--idx", _one_based(_multi_index(rng, n, k))]


def cli_pool() -> list:
    """pool[c][v] = argv of variant v of request class c."""
    rng = random.Random(POOL_SEED)
    return [[_cli_argv(rng, cls) for _ in range(CLI_VARIANTS)] for cls in CLI_CLASSES]


def cli_cycle(seed: int, cycle: int, pool=None) -> list:
    """One cycle of cold-cli requests: every class once, seeded variant and order."""
    pool = cli_pool() if pool is None else pool
    rng = random.Random(f"cold-cli/{seed}/{cycle}")
    requests = [variants[rng.randrange(len(variants))] for variants in pool]
    rng.shuffle(requests)
    return requests


def moment_strata() -> list:
    """(stratum name, kind, family, N, k) for every warm-moments stratum."""
    out = []
    for family, n, max_k in MOMENT_SPECS:
        for kind in ("G", "X"):
            for k in range(max_k + 1):
                out.append((f"{kind}:{spec_text(family, n)}:k{k}", kind, family, n, k))
    return out


def _moment_key(rng: random.Random, kind: str, family: str, n: int, k: int) -> tuple:
    word = _word(rng, family, k, balanced=False)
    if kind == "G":
        return ("G", family, n, word, _multi_index(rng, n, k), _multi_index(rng, n, k))
    members = MOMENT_INDEX_SETS[rng.randrange(len(MOMENT_INDEX_SETS))]
    return ("X", family, n, word, members, _multi_index(rng, n, k))


def moment_pool() -> dict:
    """pool[stratum name] = list of query keys.

    A key is ("G", family, N, word, row, col) for integrate_G or
    ("X", family, N, word, I members, idx) for integrate_X, all 0-based.
    """
    rng = random.Random(POOL_SEED)
    return {
        name: [_moment_key(rng, kind, family, n, k) for _ in range(MOMENT_VARIANTS)]
        for name, kind, family, n, k in moment_strata()
    }


def moment_stream(seed: int, pool=None) -> list:
    """The warm-moments query stream: (stratum, variant) pairs, every stratum
    equally often, in seeded order."""
    pool = moment_pool() if pool is None else pool
    names = sorted(pool)
    rng = random.Random(f"warm-moments/{seed}")
    stream = [
        (names[i % len(names)], rng.randrange(MOMENT_VARIANTS)) for i in range(STREAM_LENGTH)
    ]
    rng.shuffle(stream)
    return stream


def _batch(member_sets) -> list:
    """The batch with index sets from member_sets(n, size), a list of tuples."""
    batch = []
    for family, n, oracle, i_size in RELATION_CASES:
        for members in member_sets(n, i_size):
            for form in ("med", "max", "hom"):
                name = f"relations:{form}:{spec_text(family, n)}:{oracle}:I{_one_based(members)}"
                batch.append((name, "relations", (form, family, n, oracle, members)))
    for oracle, n, i_size, bound in SATURATION_CASES:
        for members in member_sets(n, i_size):
            name = f"saturation:{oracle}:I{_one_based(members)}:b{bound}"
            batch.append((name, "saturation", (oracle, members, bound)))
    for family, n, max_len in ERGODICITY_CASES:
        for members in member_sets(n, 2):
            for length in range(max_len + 1):
                name = f"ergodicity:{spec_text(family, n)}:I{_one_based(members)}:len{length}"
                batch.append((name, "ergodicity", (family, n, members, length)))
    return batch


def oracle_batch(seed: int) -> list:
    """The fixed oracle-checks batch with seeded index sets.

    Each check is (name, kind, args); index sets are 0-based member tuples.
    """
    rng = random.Random(f"oracle-checks/{seed}")
    return _batch(lambda n, size: [tuple(sorted(rng.sample(range(n), size)))])


def all_oracle_checks() -> list:
    """Every check any seed can produce (for recording golden digests)."""
    return _batch(lambda n, size: list(combinations(range(n), size)))


def ergodicity_words(family: str, length: int) -> list:
    """Words of one length: the all-white word for the self-conjugate
    families (colors are invisible to them), every coloring otherwise."""
    if self_conjugate(family):
        return ["o" * length]
    return ["".join(w) for w in product("ob", repeat=length)]
