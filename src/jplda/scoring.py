"""Closed-form trial scoring with marginalization over tie hypotheses.

For a single-enrollment, single-test trial the log-likelihood ratio is

    LLR = logsumexp_h Q(same-speaker, h) - logsumexp_h Q(diff-speaker, h)

where h runs over all condition-tie combinations and

    Q = 0.5 log|Sigma| + 0.5 Phi^T Sigma Phi + log prior(h).

Sigma is the posterior covariance of the stacked trial latents
[Z_shared; Z_enroll; Z_test] and Phi its information vector; the test
suite's ``reference`` module builds both in this unrotated form. A
hypothesis enters only through its untied columns U of
W = [V | U_1 | ... | U_N]. Rotating the untied latents to their half sum
and half difference splits the posterior precision into two blocks,
both read out of one Gram matrix G = W^T D W::

    K1 = 2G + diag(c)      size R_z, model column order; c is 1 on the
                           tied columns T and 2 on the untied columns U
    K2 = 2G[U, U] + 2I     size n_d

With the trial's projections p = W^T D m, s = p_e + p_t and
delta = p_e - p_t, and L1, L2 the lower Cholesky factors of K1, K2::

    Phi^T Sigma Phi = |L1^-1 s|^2 + |L2^-1 delta[U]|^2
    0.5 log|Sigma|  = -sum log diag L1 - sum log diag L2 + n_d log 2

The latent groups are ordered speaker, then condition 1..N, and a
hypothesis changes K1 only by a diagonal that is constant on each group.
The Cholesky factor of a leading principal submatrix is the leading
block of the full factor (Golub & Van Loan, Matrix Computations, 4.2),
and so is its inverse. So the rows of L1 and L1^-1 for group k depend
only on the tie bits of groups 0..k, and the rows of L2 and L2^-1 for an
untied group k only on the tie bits of groups 0..k-1. The hypotheses
therefore share the nodes of a prefix tree: level k holds 2^(k+1) K1
nodes and 2^k K2 nodes of R_k rows each (R_0 = R_y, R_k = R_x(k)), and
each node is built from its path by one Schur-complement step.
``precompute_session`` builds the tree one level at a time: every path
into a level carries the cross term U = 2G[later groups, path] K_path^-1,
whose first R_k rows are the products E P that the level's nodes need,
and one stacked Cholesky factorizes all of the level's K1 and K2 blocks.
A hypothesis' path is one K1 node per level and one K2 node per untied
group, so

    Phi^T Sigma Phi = sum over the nodes X of its path of |X v|^2

with v = s for K1 nodes and v = delta for K2 nodes. Whitening is
linear, so each id is whitened on its own: its projection p = W^T D m
and its rows W_all p against all the stacked node rows,
3 * sum_k 2^k R_k rows of R_z columns, are each one product with a pair
of columns, two ids at a time. A trial then gathers its two ids' rows,
adds them on the K1 rows (s) and subtracts them on the K2 rows (delta);
the squares, the node norms, the path sums and each branch's
log-sum-exp are vectorized over a block of trials. ``score_trials``
whitens each id once per block that uses it, and keeps its rows for the
later blocks that use it again, within a byte bound. ``llr`` and
``q_term`` take raw vectors, check them like ``score_trials`` does, put
their pair [enroll, test] through the same products and apply the same
block function to one trial, so their Q terms are bitwise those of
``score_trials``. A session checks itself once, when it is built: its
arrays are read-only and each branch has a hypothesis of nonzero prior,
so scoring checks neither.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import (
    AllHypothesesExcluded, DimensionMismatch, FactorizationFailed, NonFinite, SessionTooLarge,
    UnknownId,
)
from .hypothesis import HypothesisVector, PriorConfig, enumerate_condition_hypotheses
from .model import ModelParams, stack_w

__all__ = ["ScoringSession", "precompute_session", "q_term", "llr", "score_trials"]

# Largest whitening rows, 24 * R_z * sum_k 2^k R_k bytes, plus the cross
# terms of two consecutive tree levels, that a session build may hold.
MAX_WHITENING_BYTES = 1 << 30

# Bound on the trial rows of one block of trials in ``score_trials``. On
# the per-id path, 512 KiB blocks score the N = 4 matrix workload in
# 188 ms against 212 ms at 256 KiB and 247 ms at 128 KiB (in-process,
# medians of 7 interleaved runs), but the benchmark's peak RSS grows by
# 0.6 MB there and by 1.9 MB on the d = 512, N = 6 workload (73.0 ->
# 74.9 MB), whose 100 trials took 28.1 and 26.8 ms; the N = 2 file
# workload moves by 6 % or less from 256 KiB to 2 MiB (2-vCPU guest,
# 1 BLAS thread).
BLOCK_BYTES = 1 << 18

# Bound on the rows of the matrix in one product of ``_pair_product``. A
# block stays in the 2 MiB L2 cache while every pair of a stack reads it:
# on the 5.2 MB rows of the d = 512, N = 6 model, 256 KiB to 1 MiB blocks
# scored its 100 trials in 32.0-32.6 ms and 2 MiB blocks in 39.3 ms, and
# one pair took 1.04 times two matrix-vector products at 1 MiB against
# 1.09 at 512 KiB and 2.2 for the whole matrix at once.
CHUNK_BYTES = 1 << 20

# Bound on the whitened rows that ``score_trials`` keeps for ids used
# again in a later block: the 244 ids of the 120 x 120 matrix workload
# take 2 MB. Rows over the bound are whitened again, with the same bits.
ROW_CACHE_BYTES = 1 << 24

# The diagonal that a level's blocks add to their Schur blocks, per path:
# 1 for the tied K1 child, 2 for the untied K1 child and for the K2 child.
_NODE_DIAGONALS = np.array([[1.0], [2.0], [2.0]])


@dataclass(frozen=True)
class ScoringSession:
    """Immutable bundle of a model plus the prefix tree of its 2^(N+1)
    hypothesis factorizations.

    Build once with :func:`precompute_session`, then score any number of
    trials. ``factorizations`` lists the ``HypothesisVector`` of each
    position i: same-speaker branch first, each branch in
    ``enumerate_condition_hypotheses`` order. Indexed by i are
    ``half_log_det_sigma`` (0.5 log|Sigma|) and ``log_prior`` (-inf
    allowed; the session's only copy of the priors).

    The tree's nodes are stored once each, in ``rows``, every row padded
    to R_z columns: first the rows of the K1 nodes (2^(k+1) at level k,
    two thirds of the rows, applied to s = p_e + p_t), then those of the
    K2 nodes (2^k at level k, applied to delta = p_e - p_t); each side
    level by level, each level's nodes in the binary order of their
    paths' tie bits, tied first. ``node_starts`` holds the first row of
    every node that has rows. ``paths`` has 2L rows for the L levels that
    have rows: row k of column i is hypothesis i's K1 node at the k-th of
    them, by its position in ``node_starts``, and row L + k its K2 node
    there, or -1 where it ties that group; -1 stands for a node of norm
    0. The table is C-contiguous, so the path sums add along
    an axis whose stride does not depend on the block. ``projection`` is
    W^T D (R_z x d, C-contiguous): it maps a centered vector m to its
    projections p = W^T D m.

    Scoring applies ``projection`` and then ``rows`` to two vectors at a
    time, each as one product with a pair of columns (``_pair_product``):
    an id's whitened rows W_all p do not depend on the vector it shares
    the product with, so ``score_trials`` whitens each id once and keeps
    the rows of ids used again, and ``llr`` gives the same bits.

    A session is checked once, when it is built, also by
    ``dataclasses.replace``: its arrays become read-only, and a branch
    whose hypotheses all have prior 0 raises ``AllHypothesesExcluded``.
    """

    model: ModelParams
    factorizations: tuple
    half_log_det_sigma: np.ndarray
    log_prior: np.ndarray
    projection: np.ndarray
    rows: np.ndarray
    node_starts: np.ndarray
    paths: np.ndarray

    def __post_init__(self):
        top_prior = self.log_prior.reshape(2, -1).max(axis=1).tolist()
        if -math.inf in top_prior:
            name = ("same-speaker", "different-speaker")[top_prior.index(-math.inf)]
            raise AllHypothesesExcluded(f"every hypothesis in the {name} branch has prior 0")
        for a in (self.half_log_det_sigma, self.log_prior, self.projection, self.rows,
                  self.node_starts, self.paths):
            a.setflags(write=False)


def _factorize_level(blocks: np.ndarray, first: list) -> tuple:
    """Factorize one tree level's Cholesky blocks (n x r x r, overwritten).

    The blocks come per parent path: its two K1 children, tied then
    untied, then its K2 child. ``first[i]`` is the first hypothesis, in
    session order, whose path holds block i, so ``first`` never
    decreases. Returns the inverse factors F^-1 (n x r x r) and the
    first hypothesis whose path holds a block that is not numerically
    positive definite, or None.

    One stacked Cholesky factorizes the level. When it fails, each block
    is factorized on its own by the same call, to find the ones that
    fail; these, like the non-finite ones, are replaced by the identity,
    so that the build can go on to the levels below. The triangular
    inverses take one dtrtri each, in place: the stacked ways tried
    (scipy's batched ``inv``, the lower left block F^-T of the Cholesky
    of [[S, I], [I, cI]], doubling the diagonal blocks in numpy) were 1.5
    to 3 times slower on the benchmark models' levels.
    """
    n, r, _ = blocks.shape
    failed = np.zeros(n, dtype=bool)
    # LAPACK would pass an infinity; a finite sum has finite terms
    if not math.isfinite(blocks.sum()):
        failed = ~np.isfinite(blocks).all(axis=(1, 2))
        blocks[failed] = np.eye(r)
    try:
        factors = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        factors = np.empty_like(blocks)
        for i, block in enumerate(blocks):
            try:
                factors[i] = np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                failed[i] = True
        factors[failed] = np.eye(r)
    # K >= I, so every Schur complement of K is >= I too and bounds
    # |F^-1|_2 by 1: applying the explicit inverse is as stable as a
    # triangular solve. F^T, read in Fortran order, is F's memory.
    for factor in factors if r else ():
        dtrtri(factor.T, lower=0, overwrite_c=1)
    failing = next((h for h, bad in zip(first, failed) if bad), None)
    return factors, failing


def precompute_session(model: ModelParams, priors: PriorConfig) -> ScoringSession:
    """Factorize every hypothesis once, as paths of a shared prefix tree
    built from one Gram matrix, one level at a time.

    The paths into level k are the 2^k prefixes of tie bits of groups
    0..k-1 on each side. Each carries its cross term U = 2G[later
    groups, path] K_path^-1, where K_path is the path's leading block of
    K1 or K2 and the path's rows P give P^T P = K_path^-1. With
    B = 2G[path, k] and C = 2G[k, k], a node of group k has
    E P = B^T K_path^-1, the first R_k rows of U, and Schur block
    C - (E P) B; its rows are X = F^-1 [-E P, I], where F F^T is the
    Schur block plus the node's diagonal. Both K1 children of a path
    share E P and the Schur block, and a node's log-determinant, -log|F|,
    is read off the diagonal of F^-1. A child path's K^-1 gains X^T X, so
    its cross term is U[R_k:] + (2G[later, :end_k] X^T) X. On the K2
    side a tied group adds neither a node nor a term. A path keeps
    [-U | I] over all R_z columns, I on the later groups' own columns:
    its first R_k rows [-E P | I | 0] give a node's padded rows by one
    product. Each level's K1 and K2 blocks are factorized by one stacked
    call (``_factorize_level``); the log priors are summed level by
    level, in the order of ``hypothesis_log_prior``.

    Raises:
      DimensionMismatch: the priors do not cover the model's conditions.
      SessionTooLarge: the tree's whitening rows, 24 * R_z * sum_k 2^k R_k
        bytes, and the cross terms of two consecutive levels,
        2^(k+1) (R_z - start_k) R_z floats at level k, would together
        exceed ``MAX_WHITENING_BYTES``; checked before anything is
        allocated or factorized.
      FactorizationFailed: some posterior precision was not numerically
        SPD (overflowing or otherwise broken model parameters). The
        message names the first hypothesis, in session order, whose path
        holds a node that fails.
    """
    if priors.n_conditions != model.n_conditions:
        raise DimensionMismatch(
            f"priors cover {priors.n_conditions} conditions, model has {model.n_conditions}"
        )
    n_cond, r_z = model.n_conditions, model.r_z
    sizes = (model.r_y,) + model.r_x
    starts = (0, *itertools.accumulate(sizes))
    per_side = sum(2**k * r for k, r in enumerate(sizes))
    cross = [2 ** (k + 1) * (r_z - s) * r_z for k, s in enumerate(starts[:-1])] + [0]
    size = 24 * r_z * per_side + 8 * max(a + b for a, b in zip(cross, cross[1:]))
    if size > MAX_WHITENING_BYTES:
        raise SessionTooLarge(
            f"N={n_cond} conditions and R_z={r_z} latents need {size} bytes of whitening "
            f"rows and work space, above the limit of {MAX_WHITENING_BYTES} bytes"
        )
    w = stack_w(model)
    dw = model.D @ w
    gram = w.T @ dw
    gram2 = gram + gram.T
    projection = np.ascontiguousarray(dw.T)
    del w, dw, gram
    cond_hyps = enumerate_condition_hypotheses(n_cond)
    hyps = [HypothesisVector(spk, c) for spk in (True, False) for c in cond_hyps]
    # per condition, [speaker branch, 0, tie bit]: log p or log(1 - p), as
    # ``hypothesis_log_prior`` adds them
    log_factors = [
        [[[math.log(f) if f else -math.inf for f in (p, 1.0 - p)]] for p in pair]
        for pair in zip(priors.p_same_given_ss, priors.p_same_given_ds)
    ]

    # Both sides' rows in one block: freed as one piece, it raises
    # glibc's heap trim threshold above what a session frees, so the
    # heap is kept between sessions. Split in two, the heap is handed
    # back and faulted in again: 2400 page faults and 8 ms of system
    # time (quartiles 0.1 and 6.9 ms) per `jplda score` on the d=512,
    # N=6 model.
    rows = np.zeros((3 * per_side, r_z))
    filled = [0, 2 * per_side]
    terms = [np.eye(r_z)[None]] * 2  # per side, [path]: [-U | I]
    log_prior = np.zeros(2)  # the speaker's tie bit adds nothing
    node_log_det = ([], [])  # per side, per level with rows
    failures = []
    # Overflow leaves a non-finite Schur block, which raises FactorizationFailed.
    with np.errstate(all="ignore"):
        for k, r in enumerate(sizes):
            s, e = starts[k], starts[k + 1]
            n = 2**k
            # per path: its K1 children, tied then untied, then its K2 child
            blocks = np.empty((n, 3, r, r))
            np.matmul(terms[0][:, None, :r, :s], gram2[:s, s:e], out=blocks[:, :2])
            np.matmul(terms[1][:, :r, :s], gram2[:s, s:e], out=blocks[:, 2])
            blocks += gram2[s:e, s:e]
            blocks.reshape(n, 3, r * r)[..., :: r + 1] += _NODE_DIAGONALS
            first = [hyps[(2 * p + (j > 0)) << (n_cond - k)] for p in range(n) for j in range(3)]
            inv, failing = _factorize_level(blocks.reshape(3 * n, r, r), first)
            if failing is not None:
                failures.append(failing)
            inv = inv.reshape(n, 3, r, r)
            if r:
                logs = np.log(inv.diagonal(axis1=2, axis2=3)).reshape(-1)
                log_det = np.add.reduceat(logs, np.arange(0, logs.size, r)).reshape(n, 3)
                node_log_det[0].append(log_det[:, :2].reshape(-1))
                node_log_det[1].append(log_det[:, 2])
            if k:
                log_prior = (log_prior.reshape(2, -1, 1) + log_factors[k - 1]).reshape(-1)

            k1 = rows[filled[0] : filled[0] + 2 * n * r].reshape(n, 2, r, r_z)
            k2 = rows[filled[1] : filled[1] + n * r].reshape(n, 1, r, r_z)
            np.matmul(inv[:, :2], terms[0][:, None, :r], out=k1)
            np.matmul(inv[:, 2:], terms[1][:, None, :r], out=k2)
            del blocks, inv
            # Each side's child paths, [path, tie bit]: the parent's terms
            # below its first R_k rows, less the cross term of the child's
            # node. A side's parents are dropped before the next side's
            # children are made; below the last level the terms are empty.
            for side, nodes in enumerate((k1, k2)):
                base = terms[side][:, None, r:].copy()
                terms[side] = None
                child = np.empty((n, 2, r_z - e, r_z))
                tied = 2 - nodes.shape[1]  # a tied group adds no K2 node
                child[:, :tied] = base
                np.matmul((nodes @ gram2[:, e:]).swapaxes(-1, -2), nodes, out=child[:, tied:])
                np.subtract(base, child[:, tied:], out=child[:, tied:])
                terms[side] = child.reshape(2 * n, r_z - e, r_z)
                del base, child
            filled[0] += 2 * n * r
            filled[1] += n * r
    if failures:
        raise FactorizationFailed(
            f"posterior precision for hypothesis {min(failures, key=hyps.index)} is not "
            "positive definite; check the model's noise precision"
        )

    # Nodes are numbered level by level, K1 nodes first, and only those
    # with rows. Column i of ``paths``: hypothesis i's K1 node at each
    # such level, then its K2 node there, or -1 where it ties the group.
    levels = np.flatnonzero(sizes)
    level_sizes = np.array(sizes)[levels]
    count = 2**levels  # K2 nodes per level; twice as many K1 nodes
    before = np.cumsum(count) - count
    prefix = np.arange(len(hyps)) >> (n_cond - levels)[:, None]
    untied = prefix & 1
    k2_nodes = 2 * count.sum() + before[:, None] + (prefix >> 1)
    paths = np.concatenate([2 * before[:, None] + prefix, np.where(untied, k2_nodes, -1)])
    node_sizes = np.repeat(np.tile(level_sizes, 2), np.concatenate([2 * count, count]))
    node_starts = np.cumsum(node_sizes) - node_sizes
    log_det = np.concatenate([*node_log_det[0], *node_log_det[1], [0.0]])  # -1 reads the 0
    n_d = (level_sizes[:, None] * untied).sum(axis=0)
    half_log_det_sigma = n_d * math.log(2.0) + log_det[paths].sum(axis=0)
    return ScoringSession(
        model=model,
        factorizations=tuple(hyps),
        half_log_det_sigma=half_log_det_sigma,
        log_prior=log_prior,
        projection=projection,
        rows=rows,
        node_starts=node_starts,
        paths=paths,
    )


def _pair_product(a: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The stack of products a @ pairs[j] for a stack of column pairs
    (P x k x 2), in blocks of at most ``CHUNK_BYTES`` of the rows of ``a``.

    Every projection and every whitening runs through here. numpy's
    matmul runs one BLAS product of two columns per pair and block, so a
    block of ``a`` is read from cache by every pair of the stack. On
    OpenBLAS a column of this product has the same bits in column 0 or 1,
    whatever the other column holds, while products of 1, 4, 8 or 64
    columns give other bits (``test_pair_products_give_each_column_its_own_bits``
    pins it). So an id's rows depend neither on the id it is paired with
    nor on the stack, and ``llr`` gets the bits of ``score_trials``.
    """
    if a.nbytes <= CHUNK_BYTES:
        return np.matmul(a, pairs)
    out = np.empty((pairs.shape[0], a.shape[0], 2))
    step = max(1, CHUNK_BYTES // (8 * a.shape[1]))
    for i in range(0, a.shape[0], step):
        np.matmul(a[i : i + step], pairs, out=out[:, i : i + step])
    return out


def _project(session: ScoringSession, x: np.ndarray) -> np.ndarray:
    """Projections p = W^T D (m - mu) of the raw vectors m, the rows of a
    checked (2P, d) matrix that this centers in place, two at a time:
    shape (P, R_z, 2), where [j, :, c] is vector 2j + c."""
    np.subtract(x, session.model.mu, out=x)
    return _pair_product(session.projection, x.reshape(-1, 2, x.shape[1]).transpose(0, 2, 1))


def _whiten(session: ScoringSession, x: np.ndarray) -> np.ndarray:
    """Whitened rows W p of the raw vectors in ``x``, paired as by
    ``_project``: shape (P, R, 2), where [j, :, c] is vector 2j + c."""
    return _pair_product(session.rows, _project(session, x))


def _trial_rows(session: ScoringSession, rows_e, rows_t, out) -> np.ndarray:
    """Trials' whitened rows from their ids' rows (one row per trial):
    the sum on the K1 rows, the first two thirds, and the difference on
    the K2 rows."""
    n_sum = session.rows.shape[0] // 3 * 2
    np.add(rows_e[:, :n_sum], rows_t[:, :n_sum], out=out[:, :n_sum])
    np.subtract(rows_e[:, n_sum:], rows_t[:, n_sum:], out=out[:, n_sum:])
    return out


def _q_block(session: ScoringSession, rows: np.ndarray) -> np.ndarray:
    """Every hypothesis' Q for the trials whose whitened rows are the rows
    of ``rows`` (overwritten), shape (n, 2, 2^N): [trial, branch,
    hypothesis].

    The node norms, the path sums and every other reduction run along an
    axis whose length does not depend on the block, and the path sums
    along the rows of ``paths``, never a contiguous axis. So a trial's Q
    has the same bits in a block of any size. Callers ignore
    floating-point errors (``np.errstate``): overflow shows up as inf or
    NaN.
    """
    n = rows.shape[0]
    np.multiply(rows, rows, out=rows)
    norms = np.zeros((n, session.node_starts.size + 1))  # the last column stays 0
    norms[:, :-1] = np.add.reduceat(rows, session.node_starts, axis=1)
    quad = norms[:, session.paths].sum(axis=1)
    q = session.half_log_det_sigma + session.log_prior + 0.5 * quad
    return q.reshape(n, 2, -1)


def _score_block(session: ScoringSession, rows: np.ndarray) -> np.ndarray:
    """LLRs of a block of trials: each branch's log-sum-exp over ``_q_block``.

    exp and log see whole contiguous arrays, and the terms are stored
    hypothesis-major, so each branch's sum adds them one at a time in
    hypothesis order (a sum along a contiguous axis would be pairwise for
    a single trial only). So a score has the same bits in a block of any
    size. Overflow shows up as NaN, which the callers turn into NonFinite.
    """
    q = _q_block(session, rows)
    n, _, n_hyp = q.shape
    terms = np.empty((n_hyp, n, 2)).transpose(1, 2, 0)
    top = q.max(axis=2)
    np.subtract(q, top[..., None], out=terms)
    np.exp(terms, out=terms)
    lse = top + np.log(terms.sum(axis=2))
    return lse[:, 0] - lse[:, 1]


# what ``_checked_ids`` looks up for an id that its table lacks
_UNKNOWN = object()


def _checked_vector(session: ScoringSession, m, what: str) -> np.ndarray:
    """One raw vector as a float64 array, or the error that names it."""
    if m is _UNKNOWN:
        raise UnknownId(f"unknown {what}")
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (session.model.d,):
        raise DimensionMismatch(
            f"{what} has shape {m.shape}, expected a vector of length {session.model.d}"
        )
    if not np.isfinite(m).all():
        raise NonFinite(f"{what} contains non-finite values")
    return m


def _stacked(session: ScoringSession, vectors: list):
    """The raw vectors as the rows of one finite float64 matrix of width
    d, or None. Checking them all at once is cheap; callers check them
    one by one (``_checked_vector``) only after None, to name the first
    bad one."""
    try:
        x = np.array(vectors, dtype=np.float64)
    except (ValueError, TypeError):
        return None
    if x.shape != (len(vectors), session.model.d) or not np.isfinite(x).all():
        return None
    return x


def _one_trial(session: ScoringSession, m_enroll, m_test) -> np.ndarray:
    """Whitened rows of one raw trial, as a block of one row."""
    x = _stacked(session, [m_enroll, m_test])
    if x is None:
        x = np.array([
            _checked_vector(session, m_enroll, "enroll vector"),
            _checked_vector(session, m_test, "test vector"),
        ])
    pair = _whiten(session, x)[0].T
    return _trial_rows(session, pair[:1], pair[1:], np.empty((1, pair.shape[1])))


def llr(session: ScoringSession, m_enroll, m_test) -> float:
    """Log-likelihood ratio for one trial; inputs are raw (uncentered).

    Raises:
      DimensionMismatch: an input is not a vector of length d; the
        message names the enroll or the test vector.
      NonFinite: an input holds a NaN or an infinity, or the score is NaN
        because the trial's whitened projections overflowed.
    """
    with np.errstate(all="ignore"):
        score = float(_score_block(session, _one_trial(session, m_enroll, m_test))[0])
    if math.isnan(score):
        raise NonFinite("the score is NaN: the trial's whitened projections overflowed")
    return score


def q_term(session: ScoringSession, speaker_tied: bool, h, m_enroll, m_test) -> float:
    """One hypothesis' term 0.5 log|Sigma| + 0.5 Phi^T Sigma Phi + log prior.

    ``h`` is the condition-tie vector; inputs are raw (uncentered), as
    for ``llr``, and are checked the same way. Returns -inf when the
    hypothesis prior is zero. The value is bitwise the term that ``llr``
    sums for the same inputs.

    Raises:
      DimensionMismatch: ``h`` does not have one entry per condition;
        otherwise as ``llr`` for its inputs.
      NonFinite: as ``llr`` for its inputs, or the term is NaN or +inf
        because the trial's whitened projections overflowed.
    """
    hv = HypothesisVector(speaker_tied, tuple(h))
    if len(hv.condition_tied) != session.model.n_conditions:
        raise DimensionMismatch(
            f"tie vector has length {len(hv.condition_tied)}, "
            f"the model has {session.model.n_conditions} conditions"
        )
    i = session.factorizations.index(hv)
    with np.errstate(all="ignore"):
        q = float(_q_block(session, _one_trial(session, m_enroll, m_test)).reshape(-1)[i])
    if math.isnan(q) or q == math.inf:
        raise NonFinite(f"the term of {hv} is {q}: the trial's whitened projections overflowed")
    return q


_SIDES = ("enroll", "test")


def _checked_ids(session: ScoringSession, tables: tuple, chunk: list, new: tuple) -> np.ndarray:
    """The raw vectors of the ids ``new`` (enroll ids, test ids) that a
    block of trials ``chunk`` uses and that are not checked yet, as the
    rows of one matrix: enroll ids, then test ids, then, for an odd
    count, the mean, which centers to a zero pad.

    Raises for the first bad id in trial order, the enroll id of a trial
    before its test id.
    """
    vectors = [table.get(i, _UNKNOWN) for table, ids in zip(tables, new) for i in ids]
    vectors += [session.model.mu] * (len(vectors) % 2)
    x = _stacked(session, vectors)
    if x is None:
        checked = {}
        for trial in chunk:
            for key in enumerate(trial):
                side, i = key
                if i in new[side] and key not in checked:
                    name = f"{_SIDES[side]} id {i!r}"
                    checked[key] = _checked_vector(session, tables[side].get(i, _UNKNOWN), name)
        x = np.array(
            [checked[side, i] for side, ids in enumerate(new) for i in ids] + vectors[len(checked):]
        )
    return x


def score_trials(session: ScoringSession, enroll, test, trials) -> np.ndarray:
    """Score a list of (enroll_id, test_id) pairs against embedding tables.

    Trials are scored in blocks whose trial rows take at most
    ``BLOCK_BYTES``. The ids of a block that no earlier block left
    whitened are checked as one matrix, then projected and whitened two
    at a time by the pair products that ``llr`` uses (``_pair_product``),
    so no Cholesky runs here and an id's rows have the same bits whatever
    id shares its product. An id's rows are kept for a later block only
    if the id is used there, and only while the rows kept take at most
    ``ROW_CACHE_BYTES``; they are dropped after the block of the id's
    last use. Rows over the bound are whitened again when needed, which
    changes no bit. The output order matches the input order, and every
    score is bitwise equal to ``llr`` on the pair, for any number of
    conditions: no sum runs in a different order for one trial than for
    a block (see ``_q_block`` and ``_score_block``).

    Args:
      enroll / test: mappings from id to raw embedding vector.
      trials: sequence of (enroll_id, test_id) pairs.

    Raises (for the first bad id in trial order, enroll id first):
      UnknownId: a trial references an id absent from its table.
      DimensionMismatch: a referenced embedding is not a vector of
        length d; the message names the id.
      NonFinite: a referenced embedding holds a NaN or an infinity, or a
        trial's score is NaN (overflow); the message names the ids.
    """
    trials = [(e, t) for e, t in trials]
    n = len(trials)
    out = np.empty(n)
    if not trials:
        return out
    tables = (enroll, test)
    ids = tuple(zip(*trials))  # every trial's enroll ids, then its test ids
    last = tuple(dict(zip(side_ids, range(n))) for side_ids in ids)
    row_bytes = 8 * session.rows.shape[0]
    block = max(1, BLOCK_BYTES // max(1, row_bytes))
    # Rows are kept only for ids used in more than one block, and within
    # the bound. A block whitens at most 2 * block ids, and the last row
    # of ``store`` takes the pad of an odd count.
    reused = 0
    for side_ids, last_use in zip(ids, last):
        first_use = dict(zip(side_ids[::-1], range(n - 1, -1, -1)))
        count = len(last_use)
        last_block = np.fromiter(last_use.values(), np.intp, count) // block
        first_block = np.fromiter(map(first_use.__getitem__, last_use), np.intp, count) // block
        reused += int(np.count_nonzero(first_block != last_block))
    kept_max = min(reused, ROW_CACHE_BYTES // max(1, row_bytes))
    size = min(2 * block, len(last[0]) + len(last[1])) + 1 + kept_max
    store = np.empty((size, session.rows.shape[0]))
    free = list(range(size - 1))
    slots = ({}, {})  # per side, each id's row in store
    with np.errstate(all="ignore"):
        for a in range(0, n, block):
            end = min(n, a + block)
            block_ids = [dict.fromkeys(side_ids[a:end]) for side_ids in ids]
            new = tuple(
                dict.fromkeys(i for i in side_ids if i not in slot)
                for side_ids, slot in zip(block_ids, slots)
            )
            n_new = len(new[0]) + len(new[1])
            if n_new:
                x = _checked_ids(session, tables, trials[a:end], new)
                taken = [free.pop() for _ in range(n_new)]
                slots[0].update(zip(new[0], taken))
                slots[1].update(zip(new[1], taken[len(new[0]) :]))
                pairs = np.reshape(taken + [size - 1] * (n_new % 2), (-1, 2))
                store[pairs] = _whiten(session, x).transpose(0, 2, 1)
            rows = store[list(map(slots[0].__getitem__, ids[0][a:end]))]
            other = store[list(map(slots[1].__getitem__, ids[1][a:end]))]
            out[a:end] = _score_block(session, _trial_rows(session, rows, other, out=rows))
            for side_ids, slot, last_use in zip(block_ids, slots, last):
                for i in side_ids:
                    if last_use[i] < end:
                        free.append(slot.pop(i))
            # new ids used again stay only while the kept rows fit the bound
            over = len(slots[0]) + len(slots[1]) - kept_max
            if over > 0:
                kept = [(slot, i) for side_ids, slot in zip(new, slots) for i in side_ids if i in slot]
                for slot, i in kept[:over]:
                    free.append(slot.pop(i))
    nan = np.flatnonzero(np.isnan(out))
    if nan.size:
        eid, tid = trials[nan[0]]
        raise NonFinite(
            f"the score of trial ({eid!r}, {tid!r}) is NaN: its whitened projections overflowed"
        )
    return out
