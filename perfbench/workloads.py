"""Workload definitions shared by run.py, the workers and the recorder.

Stdlib only: run.py imports this module without importing symcurv.
"""

import random
import time

# Fresh-process CLI commands. "{seed}" is replaced by the run's seed and
# "{config}" by the config file written at set-up; the template string is
# the key under which expected outputs are recorded.
CLI_WORKLOADS = {
    "cli_spaces": [
        "info S7",
        "info CP3",
        "info S4xS4",
        "info S2xS3",
        "info CP3cfg --config {config}",
    ],
    "cli_bundles": [
        "classify S5 --rank 8",
        "classify CP2 --rank 4",
        "classify S4 --rank 4",
        "verify S6 spinor:6 --seed {seed}",
        "verify CP2 un_fund:1",
        "verify S4 spin4:(1,0)",
        "charclasses S4 spin4:(1,0)",
        "charclasses CP2 un_det:1",
    ],
}

# Written at set-up of cli_spaces: catalog CP3 serialized under a name the
# catalog does not know, so `info` has to load it through --config.
CONFIG_SOURCE = (
    "import dataclasses, sys\n"
    "from symcurv import symspace as ss\n"
    "space = dataclasses.replace(ss.catalog('CP3'), name='CP3cfg')\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(ss.space_to_text(space))\n"
)


def cli_argv(template, seed, config):
    return [w.format(seed=seed, config=config) for w in template.split()]


# api_warm bases: (name, rank bound, weight cap) passed to
# bundles.catalog_irreps to build each base's irrep pool at set-up.
API_BASES = (
    ("S2", 2, 2),
    ("S3", 5, 2),
    ("S4", 4, 2),
    ("CP1", 2, 2),
    ("CP2", 4, 2),
    ("S5", 8, 2),
)

# A seed draws one operation list, and every pass of a run repeats it: for
# every base one pooled irrep, one seeded sum of two irreps on the bases in
# API_PAIR_BASES, and one seeded perturbed input that recover_rho_hat must
# reject on the bases in API_PERTURBED_BASES, in seeded order. An
# operation's cost depends on its base far more than on the irreps drawn
# (see perfbench/README.md), so seeds change the inputs more than the work.
# The irrep on S5 is always spinor:5: it sets the process's peak memory
# (about 6 MB above any other operation), so a seed that drew another would
# report a lower peak_rss_mb for the same code. A pass is short (about 3 s,
# half of it the S5 operation), so a run holds several and its median pass
# resists machine noise. S2 and CP1 get no perturbed inputs:
# their Lambda^2 is one-dimensional, so every candidate block is a
# homomorphism.
API_PAIR_BASES = ("S2", "S3", "S4", "CP1", "CP2")
API_PERTURBED_BASES = ("S3", "S4", "CP2")
API_FIXED_IRREP = {"S5": "spinor:5"}


def pair_key(base, labels):
    return base + "|" + "+".join(labels)


def draw_api_ops(seed, pool_labels):
    """The seed's api_warm operations as (base, labels, perturbed) tuples.

    pool_labels maps each base to the labels of its irrep pool, in pool
    order. Pairs are unordered, so their labels are sorted by pool index.
    """
    rng = random.Random(seed)
    ops = []
    for base, _, _ in API_BASES:
        labels = pool_labels[base]
        single = API_FIXED_IRREP.get(base) or rng.choice(labels)
        ops.append((base, (single,), False))
        if base in API_PAIR_BASES:
            i, j = sorted(rng.randrange(len(labels)) for _ in range(2))
            ops.append((base, (labels[i], labels[j]), False))
        if base in API_PERTURBED_BASES:
            nontrivial = [lbl for lbl in labels if not lbl.startswith("trivial")]
            ops.append((base, (rng.choice(nontrivial),), True))
    rng.shuffle(ops)
    return ops


def api_universe(pool_labels):
    """Every unperturbed operation any seed can draw, for recording."""
    out = []
    for base, _, _ in API_BASES:
        labels = pool_labels[base]
        for i, a in enumerate(labels):
            out.append((base, (a,)))
            if base in API_PAIR_BASES:
                out += [(base, (a, b)) for b in labels[i:]]
    return out


def passes_until(seconds, one_pass):
    """Call one_pass() while another call as long as the last one still
    fits in seconds, and at least once. Returns what the calls returned:
    each pass's own measured time."""
    out = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        out.append(one_pass())
        now = time.perf_counter()
        if now + (now - t) > start + seconds:
            return out
