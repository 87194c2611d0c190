"""Shared brute-force oracles used by unit and acceptance tests.

These deliberately avoid the library's formulas: the norm oracle maximizes
||Tx|| / ||x|| over random inputs drawn from a mixture of families (uniform
box, correlated-sign, sparse, heavy-tailed) so that near-extremal directions
for both norm kinds are reliably sampled, and the pair-defect oracle loops
over index pairs with raw matrices.  ``instance_doc`` is an instance's
document built from its raw arrays, ``dump_text`` is the instance file
through the stdlib ``json`` encoder and ``read_instance`` reads one
through the stdlib decoder, one Python number per entry;
``conditional_expectation`` fills the weighted block-averaging matrix one
block at a time, and ``order_law_sweep`` checks the filtration laws with
the commuting-order law on all N^2 pairs.  ``closure_fraction`` samples
the closure of the eventual class under |.| that ``is_abs_closed`` decides
exactly.
``dense_stages`` rebuilds a builder's stages as the dense matrices the
builders made before they emitted block stages, and ``block_matrix`` fills
a block stage's matrix one entry at a time.  ``is_band_projection`` tells
a 0/1 diagonal matrix (a band projection under coordinate order) from the
raw matrix.

The sequence references below work term by term through the per-vector
API (``apply``, ``norm``, ``np.abs`` of ``coords``), one ``LatticeVector``
per term, where the library works on the (N, d) array of a sequence.
"""

import json
from pathlib import Path

import numpy as np

from lattice_lab import (
    LatticeSpace,
    NormKind,
    abs_seq,
    apply,
    basis,
    eventual_witness,
    norm,
    operator_norm,
    vector,
)
from lattice_lab.filtration import ValidationReport, _law
from lattice_lab.jsonio import InstanceFormatError, instance_from_dict
from lattice_lab.harness import random_eventual_martingale, trial_rng
from lattice_lab.spaces import DEFAULT_TOL


def _mixture_samples(dim: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    quarters = n_samples // 4
    box = rng.uniform(-1.0, 1.0, size=(dim, quarters))

    # signs share a per-sample bias, so near-constant-sign vectors occur often
    p = rng.uniform(0.0, 1.0, size=quarters)
    signed = np.where(rng.uniform(size=(dim, quarters)) < p, 1.0, -1.0)

    sparse = np.zeros((dim, quarters))
    for j in range(quarters):
        k = 1 if j % 2 == 0 else int(rng.integers(1, dim + 1))
        support = rng.choice(dim, size=k, replace=False)
        sparse[support, j] = rng.uniform(-1.0, 1.0, size=k)
    empty = np.flatnonzero(np.abs(sparse).sum(axis=0) == 0)
    sparse[0, empty] = 1.0

    heavy = np.sign(rng.uniform(-1.0, 1.0, size=(dim, quarters))) * 10.0 ** rng.uniform(
        -3.0, 0.0, size=(dim, quarters)
    )
    return np.hstack([box, signed, sparse, heavy])


def sampled_norm_lower_bound(op, n_samples: int, rng: np.random.Generator) -> float:
    """max ||Tx|| / ||x|| over >= n_samples random inputs; a lower bound for
    the induced norm, vectorized over the whole batch."""
    xs = _mixture_samples(op.space.dim, n_samples, rng)
    txs = op.matrix @ xs
    if op.space.norm_kind is NormKind.SUP:
        ratios = np.abs(txs).max(axis=0) / np.abs(xs).max(axis=0)
    else:
        w = op.space.weights
        ratios = (w @ np.abs(txs)) / (w @ np.abs(xs))
    return float(ratios.max())


def pair_table(seq, filt) -> np.ndarray:
    """T[n, m] = ||E_n x_m - x_n|| (0-based, m >= n), one raw matrix-vector
    product per pair; NaN below the diagonal."""
    mats = [op.matrix for op in filt.ops]
    xs = [v.coords for v in seq.vectors]
    w = filt.space.weights

    def nrm(v):
        return float(w @ np.abs(v)) if w is not None else float(np.max(np.abs(v)))

    table = np.full((len(xs), len(xs)), np.nan)
    for n in range(len(xs)):
        for m in range(n, len(xs)):
            table[n, m] = nrm(mats[n] @ xs[m] - xs[n])
    return table


def instance_doc(instance) -> dict:
    """The instance's JSON document, nested lists built from the raw arrays."""
    space = {"dim": instance.space.dim, "norm": instance.space.norm_kind.value}
    if instance.space.weights is not None:
        space["weights"] = instance.space.weights.tolist()
    doc = {"space": space}
    if instance.filtration is not None:
        doc["filtration"] = {
            "operators": [{"matrix": e.matrix.tolist()} for e in instance.filtration.ops]
        }
    if instance.sequence is not None:
        doc["sequence"] = {"vectors": instance.sequence.coords.tolist()}
    return doc


def dump_text(instance) -> str:
    """The instance file as the stdlib encoder writes it."""
    return json.dumps(instance_doc(instance), separators=(",", ":")) + "\n"


def read_instance(path):
    """The instance file as ``json.loads`` parses it, one Python number per
    entry, checked by ``instance_from_dict``: the plain stdlib reader."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON in {path}: {exc}") from exc
    return instance_from_dict(data)


def order_law_sweep(filt, require_contractive=False, tol=DEFAULT_TOL) -> ValidationReport:
    """``validate`` with the commuting-order law on every pair (n, m) in
    row-major order, idempotence read off its diagonal."""
    mats = [e.matrix for e in filt.ops]
    order = {
        (n, m): float(np.max(np.abs(en @ em - mats[min(n, m) - 1])))
        for n, en in enumerate(mats, start=1)
        for m, em in enumerate(mats, start=1)
    }
    positivity = (((n,), float(-np.min(e))) for n, e in enumerate(mats, start=1))
    idempotence = (((n,), order[n, n]) for n in range(1, len(mats) + 1))
    checks = [
        _law("positivity", positivity, tol),
        _law("idempotence", idempotence, tol),
        _law("commuting-order", order.items(), tol),
    ]
    if require_contractive:
        norms = (((n,), operator_norm(e) - 1.0) for n, e in enumerate(filt.ops, start=1))
        checks.append(_law("contractivity", norms, tol))
    return ValidationReport(tuple(checks))


def is_band_projection(op, tol=DEFAULT_TOL) -> bool:
    """Whether the matrix is diagonal with entries in {0, 1} within tol; NaN never is."""
    m = op.matrix
    d = np.diag(m)
    off_diagonal = np.abs(m - np.diag(d)) <= tol
    zero_or_one = np.minimum(np.abs(d), np.abs(d - 1.0)) <= tol
    return bool(np.all(off_diagonal) and np.all(zero_or_one))


def closure_fraction(filt, seed: int, trials: int) -> float:
    """Fraction of random eventual martingales whose absolute sequence is
    still an eventual martingale."""
    closed = 0
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        seq, _ = random_eventual_martingale(filt, rng)
        if eventual_witness(abs_seq(seq), filt) is not None:
            closed += 1
    return closed / trials


def conditional_expectation(space, labels) -> np.ndarray:
    """Block-averaging matrix of a label partition, one ``np.ix_`` block at a
    time: entry (i, j) of block b is w_j / sum_{k in b} w_k."""
    w = space.weights if space.weights is not None else np.ones(space.dim)
    m = np.zeros((space.dim, space.dim))
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        m[np.ix_(idx, idx)] = w[idx] / w[idx].sum()
    return m


def terminal_rows(filt, x) -> np.ndarray:
    """Rows E_n x, one ``apply`` per operator."""
    return np.array([apply(e, x).coords for e in filt.ops])


def seq_norm(seq) -> float:
    return max(norm(v) for v in seq.vectors)


def seq_distance(a, b) -> float:
    return max(norm(x - y) for x, y in zip(a.vectors, b.vectors))


def tail_modify_rows(seq, filt, x, m) -> np.ndarray:
    """Terms 1..m kept, then E_n x for n = m+1..N, one term at a time."""
    vecs = list(seq.vectors[:m])
    for n in range(m + 1, seq.horizon + 1):
        vecs.append(apply(filt.op(n), x))
    return np.array([v.coords for v in vecs])


def abs_commutation_index(filt, x, tol):
    """Minimal l with || |E_n x| - E_n |x| || <= tol for every n >= l, or None."""
    last_bad = 0
    ax = vector(x.space, np.abs(x.coords))
    for n in range(1, filt.horizon + 1):
        en = filt.op(n)
        if norm(vector(x.space, np.abs(apply(en, x).coords)) - apply(en, ax)) > tol:
            last_bad = n
    return last_bad + 1 if last_bad < filt.horizon else None


def is_dense(filt, tol) -> bool:
    """E_N e_i = e_i within tol for every basis vector, one apply each."""
    e_last = filt.ops[-1]
    for i in range(1, filt.space.dim + 1):
        e = basis(filt.space, i)
        if norm(apply(e_last, e) - e) > tol:
            return False
    return True


def harmonic_rows(n_terms: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The harmonic tail x_n = sum_{i>=n} e_i / i and its approximants A^m
    (terms 1..m kept, then (sum_{i<=n} e_i / i) / m), one row at a time."""
    inv = 1.0 / np.arange(1, n_terms + 1)

    def x_tail(n):
        vals = np.zeros(n_terms)
        vals[n - 1 :] = inv[n - 1 :]
        return vals

    def y_head(n):
        vals = np.zeros(n_terms)
        vals[:n] = inv[:n]
        return vals

    base = np.array([x_tail(n) for n in range(1, n_terms + 1)])
    family = [
        np.array([x_tail(n) if n <= m else y_head(n) / m for n in range(1, n_terms + 1)])
        for m in range(1, n_terms)
    ]
    return base, family


def eventual_rows(filt, rng) -> tuple[np.ndarray, int]:
    """A random eventual martingale drawn term by term: the cut, x, then one
    uniform head vector per term before the cut, then E_n x."""
    n_terms, dim = filt.horizon, filt.space.dim
    cut = int(rng.integers(1, n_terms)) if n_terms > 1 else 1
    x = rng.uniform(-1.0, 1.0, size=dim)
    rows = [
        rng.uniform(-1.0, 1.0, size=dim)
        if n < cut
        else apply(filt.op(n), vector(filt.space, x)).coords
        for n in range(1, n_terms + 1)
    ]
    return np.array(rows), cut


# ---------------------------------------------------------------------------
# Dense reference builders: each stage as a full d x d matrix
# ---------------------------------------------------------------------------

def truncation_stages(n: int) -> list[np.ndarray]:
    stages = []
    for k in range(1, n + 1):
        diag = np.zeros(n)
        diag[:k] = 1.0
        stages.append(np.diag(diag))
    return stages


def pairing_stages(pairs: int) -> list[np.ndarray]:
    dim = 2 * pairs
    stages = []
    for n in range(1, pairs + 1):
        m = np.zeros((dim, dim))
        kept = 2 * n
        for i in range(kept):
            m[i, i] = 1.0
        for k in range(kept, dim, 2):
            m[k : k + 2, k : k + 2] = 0.5
        stages.append(m)
    return stages


def dyadic_stages(levels: int) -> list[np.ndarray]:
    stages = []
    for n in range(1, levels + 1):
        block = 2 ** (levels - n)
        stages.append(np.kron(np.eye(2**n), np.full((block, block), 1.0 / block)))
    return stages


def copy_stages(n: int) -> list[np.ndarray]:
    eye, rows = np.eye(n), np.arange(n)
    return [eye[np.minimum(rows, k)] for k in rows]


def random_nested_stages(dim: int, depth: int, seed: int, norm_kind="l1") -> list[np.ndarray]:
    """The same seeded chain of splits as ``build_random_nested``, each level's
    conditional expectation filled one block at a time."""
    rng = np.random.default_rng(seed)
    kind = NormKind(norm_kind)
    if kind is NormKind.WEIGHTED_L1:
        w = rng.uniform(0.25, 1.75, size=dim)
        space = LatticeSpace(dim, kind, w / w.sum())
    else:
        space = LatticeSpace(dim, kind)
    labels = np.zeros(dim, dtype=int)
    partitions = [labels.copy()]
    for level in range(2, depth + 1):
        sizes = np.bincount(labels)
        block = int(rng.choice(np.flatnonzero(sizes >= 2)))
        members = rng.permutation(np.flatnonzero(labels == block))
        cut = int(rng.integers(1, members.size))
        labels = labels.copy()
        labels[members[:cut]] = level - 1
        partitions.append(labels.copy())
    return [conditional_expectation(space, p) for p in partitions]


def dense_stages(builder: str, **params) -> list[np.ndarray]:
    """Dense stages of a named builder; ``params`` as in ``random_filtration``'s
    descriptor (``size``, or ``dim``, ``depth``, ``sub_seed`` and ``norm``)."""
    if builder == "random-nested":
        return random_nested_stages(
            params["dim"], params["depth"], params["sub_seed"], params["norm"]
        )
    build = {"truncation": truncation_stages, "pairing": pairing_stages,
             "dyadic": dyadic_stages, "copy": copy_stages}[builder]
    return build(params["size"])


def block_matrix(labels, mask, coef) -> np.ndarray:
    """T_ij = mask_i * coef_j * [label_i == label_j], one entry at a time."""
    d = len(labels)
    m = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if mask[i] and labels[i] == labels[j]:
                m[i, j] = coef[j]
    return m


def kernel(op) -> str:
    """The path ``apply_rows`` takes on a stage, read off the arrays it holds:
    "dense", "diagonal", "gather", or "bincount", the one block-sum kernel."""
    if not hasattr(op, "labels"):
        return "dense"
    if op._scale is not None:
        return "diagonal" if op._src is None else "gather"
    return "bincount"
