"""Layer spans recorded from outside the package.

install() replaces public functions of the symcurv modules with wrappers
that record a span around each call. Calls between modules go through
module attributes (`ss.curvature_operator(...)`) and calls inside a module
through its globals, so both reach the wrapper; the package itself is not
edited. Spans stay in memory as [name, start, end, parent, op] lists and are
written out by the caller when the run ends.
"""

import time

# layer -> functions wrapped under that span name ("Class.method" allowed).
# liealg._from_matrices is the one private entry: cp_model builds su(n+1)
# through it without a public constructor.
LAYERS = {
    "liealg.build": ("liealg", ["make_so", "make_su", "make_u", "make_abelian",
                                "_from_matrices", "product_algebra",
                                "change_basis"]),
    "symspace.catalog": ("symspace", ["catalog"]),
    "symspace.from_text": ("symspace", ["space_from_text"]),
    "symspace.curvature": ("symspace", ["curvature_operator"]),
    "symspace.condition_a": ("symspace", ["condition_a"]),
    "symspace.isotropy_rep": ("symspace", ["isotropy_rep"]),
    "exact.rref": ("_exact", ["rank", "nullspace", "column_space", "solve",
                              "inverse"]),
    "linalg.spectrum": ("linalg", ["eig_sym"]),
    "reps.construct": ("reps", ["from_descriptor", "trivial_rep", "spin2_irrep",
                                "su2_irrep", "spin4_irrep", "spin_fundamental",
                                "sym2_traceless", "un_det_power",
                                "un_fundamental_twist", "direct_sum",
                                "external_sum"]),
    "reps.classify_type": ("reps", ["classify_type", "is_irreducible",
                                    "equivalent", "commutant_basis"]),
    "bundles.induce": ("bundles", ["induce"]),
    "bundles.identity_checks": ("bundles", ["check_bracket_identity",
                                            "check_kernel_inclusion",
                                            "bracket_identity_residual"]),
    "bundles.recover": ("bundles", ["recover_rho_hat"]),
    "bundles.as_rep": ("bundles", ["RecoveredHom.as_rep"]),
    "bundles.charclasses": ("bundles", ["characteristic_numbers"]),
    "bundles.classify": ("bundles", ["classify_bundles", "catalog_irreps"]),
    "spherebundle.schur": ("spherebundle", ["schur_constancy_check", "c_tilde"]),
}

# Layer times reported as "<layer>_s"; cli.self is the command time that no
# layer span covers (interpreter start, imports, argument parsing, emit).
LAYER_NAMES = list(LAYERS) + ["cli.self"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.active = True
        self.missing = []

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None,
                    self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def install(tracer):
    """Wrap every function named in LAYERS; record names that are absent."""
    import importlib

    for name, (module, attrs) in LAYERS.items():
        mod = importlib.import_module("symcurv." + module)
        for attr in attrs:
            owner = mod
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                tracer.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, tracer.wrap(fn, name))


def capture_curvatures(found):
    """Wrap symspace.curvature_operator so that every call appends
    (space, CurvatureOperator) to found. Call before install(), so the
    layer span covers the capture too."""
    from symcurv import symspace as ss

    curvature_operator = ss.curvature_operator

    def capture(space, *args, **kwargs):
        out = curvature_operator(space, *args, **kwargs)
        found.append((space, out))
        return out

    ss.curvature_operator = capture


def self_times(spans, first=0):
    """Per-layer self time of spans[first:]: each span's duration minus the
    time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i in range(first, len(spans)):
        name, start, end = spans[i][:3]
        out[name] = out.get(name, 0.0) + end - start - child[i]
    return out


def top_level_time(spans):
    return sum(end - start for _, start, end, parent, _ in spans
               if parent is None)


def counts(spans, first=0):
    """Counts derived from spans[first:]: exact elimination calls (the
    outermost exact call only) and bundle operations (one induce each)."""
    rref = ops = 0
    for name, _, _, parent, _ in spans[first:]:
        if name == "exact.rref" and (parent is None
                                     or spans[parent][0] != "exact.rref"):
            rref += 1
        ops += name == "bundles.induce"
    return {"exact.rref_calls": rref, "bundles.ops": ops}
