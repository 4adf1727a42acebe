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
of columns, two ids at a time. A test-side id's K2 rows are negated, so
a trial's rows are the sum of its two ids' rows: s on the K1 rows and
delta on the K2 rows, since a - b is a + (-b) in IEEE arithmetic, bit for
bit. The squares, the node norms, the path sums and each branch's
log-sum-exp are vectorized over a block of trials. ``score_trials``
whitens every id before scoring when its row store holds them all, and
otherwise each id once per block that uses it, keeping its rows for the
later blocks that use it again within a byte bound. ``llr`` and
``q_terms`` take raw vectors, check them like ``score_trials`` does, put
their pair [enroll, test] through the same products and apply the same
block function to one trial, so their Q terms are bitwise those of
``score_trials``; ``q_terms`` returns all 2^(N+1) of them. ``score_trials``
takes raw tables, or ``ProjectedTable``s, which keep each id's
projection p (R_z floats) in place of its raw vector (d floats) and give
it the same bits. A batch of raw vectors is checked by one scan, and one
id's projection where it is looked up, so both raise the same error for
the first bad id. A session checks itself once, when it is built: its
arrays are read-only and each branch has a hypothesis of nonzero prior,
so scoring checks neither.
"""

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllHypothesesExcluded, FactorizationFailed, NonFinite, SessionTooLarge, UnknownId,
)
from .hypothesis import (
    HypothesisVector, PriorConfig, enumerate_condition_hypotheses, hypothesis_log_prior,
)
from .model import (
    ModelParams, _check_priors, _check_vector, _checked_vector, _lower_inverse, stack_w,
)

__all__ = [
    "ScoringSession", "ProjectedTable", "precompute_session", "q_terms", "llr", "score_trials",
]

# Largest whitening rows, 24 * R_z * sum_k 2^k R_k bytes, plus the cross
# terms of two consecutive tree levels, that a session build may hold.
MAX_WHITENING_BYTES = 1 << 30

# Bound on the trial rows of one block of trials in ``score_trials``, and
# on the ids of one whitening call there. With a trial's rows built by one
# add, 512 KiB blocks score the N = 4 matrix workload in 112.6 ms against
# 114.5 ms at 256 KiB and 137.6 ms at 128 KiB (in-process, medians of 9
# interleaved runs), but a whole `jplda score` there peaks 0.7 MB higher
# (65.7 against 65.0 MB maximum RSS); the 100 trials of the d = 512,
# N = 6 workload take 31.3, 32.2 and 37.3 ms, and the N = 2 file workload
# moves by 3 % or less (2-vCPU guest, 1 BLAS thread).
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
    ``half_log_det_sigma`` (0.5 log|Sigma|) and ``log_prior``, the
    ``hypothesis_log_prior`` of each hypothesis (-inf allowed; the
    session's only copy of the priors).

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
    the product with, so ``score_trials`` may whiten ids in any groups
    (all ids up front when they fit its row store, else block by block,
    keeping the rows of ids used again), and ``llr`` gives the same bits.

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
    decreases. Returns the inverse factors F^-1 (n x r x r, from
    ``_lower_inverse``) and the first hypothesis whose path holds a block
    that is not numerically positive definite, or None.

    One stacked Cholesky factorizes the level. When it fails, each block
    is factorized on its own by the same call, to find the ones that
    fail; these, like the non-finite ones, are replaced by the identity,
    so that the build can go on to the levels below.
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
    failing = next((h for h, bad in zip(first, failed) if bad), None)
    return _lower_inverse(factors), failing


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
    call (``_factorize_level``). ``log_prior`` is
    ``hypothesis_log_prior`` of each hypothesis, in session order.

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
    _check_priors(model, priors)
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

    # Both sides' rows in one block: freed as one piece, it raises
    # glibc's heap trim threshold above what a session frees, so the
    # heap is kept between sessions. Split in two, the heap is handed
    # back and faulted in again: 2400 page faults and 8 ms of system
    # time (quartiles 0.1 and 6.9 ms) per `jplda score` on the d=512,
    # N=6 model.
    rows = np.zeros((3 * per_side, r_z))
    filled = [0, 2 * per_side]
    terms = [np.eye(r_z)[None]] * 2  # per side, [path]: [-U | I]
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
        log_prior=np.array([hypothesis_log_prior(h, priors) for h in hyps]),
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
    pairs = x.reshape(len(x) // 2, 2, x.shape[1]).transpose(0, 2, 1)
    return _pair_product(session.projection, pairs)


def _whiten(session: ScoringSession, pairs: np.ndarray) -> np.ndarray:
    """Whitened rows W p of the projections paired as ``_project`` pairs
    them, in a C-contiguous (P, R_z, 2) array: shape (P, R, 2), where
    [j, :, c] is vector 2j + c. A strided ``pairs`` would give other bits."""
    return _pair_product(session.rows, pairs)


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


# what ``score_trials`` looks up for an id that its table lacks
_UNKNOWN = object()


def _checked_entry(session: ScoringSession, m, what: str) -> np.ndarray:
    """``model._checked_vector`` of a looked-up raw vector, or ``UnknownId``."""
    if m is _UNKNOWN:
        raise UnknownId(f"unknown {what}")
    return _checked_vector(session.model, m, what)


def _checked_stack(session: ScoringSession, vectors: list, name) -> np.ndarray:
    """The raw vectors as the rows of one finite float64 matrix of width
    d, then, for an odd count, the mean, which centers to a zero pad.

    Checking them all at once is cheap. Only when that fails is each
    checked on its own, in order, so that the error names the first bad
    one: vector k is ``name(k)``.
    """
    n = len(vectors)
    padded = vectors + [session.model.mu] * (n % 2)
    try:
        x = np.array(padded, dtype=np.float64)
    except (ValueError, TypeError):
        x = None
    if x is None or x.shape != (len(padded), session.model.d) or not np.isfinite(x).all():
        x = np.array([_checked_entry(session, m, name(k)) for k, m in enumerate(vectors)]
                     + padded[n:])
    return x


def _one_trial(session: ScoringSession, m_enroll, m_test) -> np.ndarray:
    """Whitened rows of one raw trial, as a block of one row."""
    x = _checked_stack(session, [m_enroll, m_test], ("enroll vector", "test vector").__getitem__)
    pair = _whiten(session, _project(session, x))[0]
    test_k2 = pair[session.rows.shape[0] // 3 * 2 :, 1]
    np.negative(test_k2, out=test_k2)
    return (pair[:, 0] + pair[:, 1])[None]


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


def q_terms(session: ScoringSession, m_enroll, m_test) -> np.ndarray:
    """Every hypothesis' term 0.5 log|Sigma| + 0.5 Phi^T Sigma Phi + log
    prior for one trial, shape (2, 2^N): [branch, hypothesis], in the
    order of ``session.factorizations``.

    Inputs are raw (uncentered), as for ``llr``, and are checked the same
    way. An entry is -inf where the hypothesis prior is zero. The terms
    are bitwise those whose branch log-sum-exps ``llr`` subtracts.

    Raises:
      DimensionMismatch: as ``llr``.
      NonFinite: as ``llr`` for its inputs, or a term is NaN or +inf
        because the trial's whitened projections overflowed; the message
        names the first such hypothesis.
    """
    with np.errstate(all="ignore"):
        q = _q_block(session, _one_trial(session, m_enroll, m_test))[0]
    bad = np.flatnonzero(np.isnan(q) | (q == math.inf))
    if bad.size:
        i = int(bad[0])
        raise NonFinite(f"the term of {session.factorizations[i]} is {float(q.flat[i])}: "
                        "the trial's whitened projections overflowed")
    return q


def _what(side: bool, name) -> str:
    """How errors name the id ``name`` of a trial's enroll or test side."""
    return f"{('enroll', 'test')[side]} id {name!r}"


class ProjectedTable:
    """An embedding table kept as the projections p = W^T D (m - mu) of
    its raw vectors m under one session: R_z floats per id where the raw
    table holds d (90 against 200 on the N = 2 and N = 4 benchmark
    models, 160 against 512 at d = 512). A trial depends on an embedding
    only through p, so ``score_trials`` gives these tables the scores of
    the raw ones, bit for bit.

    ``add`` takes one block of rows at a time, as
    ``io.load_embeddings(path, into=table)`` parses them in its one pass
    over the file, and projects it as ``score_trials`` projects raw
    vectors (``_project``), so no raw vector outlives its block; ``in``
    tells the reader which ids the table already holds. The blocks are
    kept as they come: one matrix would need the row count before the
    parse. The table also keeps each id's row, whether its raw vector
    was a finite vector of length d, and its width (a table of the wrong
    width is not projected). ``score_trials`` looks each id up on its
    own, in trial order (``_projection``), and the lookup raises what the
    raw table would raise for that id, so an id no trial uses is never
    checked.
    """

    def __init__(self, session: ScoringSession):
        self.session = session
        self.width = None
        self._index = {}  # id -> row
        self._valid = bytearray()  # per row: 1 where the raw vector was finite, of length d
        self._starts = []  # the first row of each block
        self._blocks = []  # each block's projections; None at the wrong width

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name) -> bool:
        return name in self._index

    def add(self, names: list, values: np.ndarray) -> None:
        """Project the next rows: ids ``names``, raw vectors the rows of
        the (n, width) float64 matrix ``values``, which this overwrites."""
        n, self.width = values.shape
        start = len(self._valid)
        self._index.update(zip(names, range(start, start + n)))
        finite = np.isfinite(values).all(axis=1)
        proj = None
        if self.width == self.session.model.d:
            mu = self.session.model.mu
            values[~finite] = mu  # no NaN or infinity enters a product
            x = np.concatenate([values, mu[None]]) if n % 2 else values
            with np.errstate(all="ignore"):
                proj = _project(self.session, x).transpose(0, 2, 1)
            proj = proj.reshape(len(x), self.session.model.r_z)[:n]
        self._valid += bytes(n) if proj is None else finite.tobytes()
        self._starts.append(start)
        self._blocks.append(proj)

    def _projection(self, name, side: bool) -> np.ndarray:
        """The projection of id ``name`` on ``side``, or the error that
        ``score_trials`` raises for its raw vector."""
        row = self._index.get(name)
        if row is None:
            raise UnknownId(f"unknown {_what(side, name)}")
        if not self._valid[row]:
            _check_vector(self.session.model, _what(side, name), (self.width,), False)
        b = bisect.bisect_right(self._starts, row) - 1
        return self._blocks[b][row - self._starts[b]]


def _raw_pairs(session: ScoringSession, tables: tuple, names: list, sides: list) -> np.ndarray:
    """Projections of the raw vectors ``tables[sides[k]][names[k]]``,
    checked in order and paired as by ``_project``, a zero pad last."""
    vectors = [tables[s].get(name, _UNKNOWN) for name, s in zip(names, sides)]
    x = _checked_stack(session, vectors, lambda k: _what(sides[k], names[k]))
    return _project(session, x)


def _projected_pairs(session: ScoringSession, tables: tuple, names: list,
                     sides: list) -> np.ndarray:
    """As ``_raw_pairs``, for ``ProjectedTable``s: their projections, each
    id checked where it is gathered, in order, into a C-contiguous array."""
    pairs = np.zeros(((len(names) + 1) // 2, session.model.r_z, 2))
    for k, (name, side) in enumerate(zip(names, sides)):
        pairs[k >> 1, :, k & 1] = tables[side]._projection(name, side)
    return pairs


def _positions(trials) -> tuple:
    """Each trial's enroll and test positions, from one pass over
    ``trials``, and the ids by position.

    Returns an (n, 2) intp array, the list of ids and the count of
    enroll ids. Positions number each side's ids in the order of their
    first use, enroll ids first, so a test id's position is offset by
    the count of enroll ids.
    """
    index = ({}, {})

    def walk():
        enroll, test = index
        for e, t in trials:
            yield enroll.setdefault(e, len(enroll))
            yield test.setdefault(t, len(test))

    # with a count, the array does not grow by reallocation
    count = 2 * len(trials) if hasattr(trials, "__len__") else -1
    pos = np.fromiter(walk(), np.intp, count).reshape(-1, 2)
    pos[:, 1] += len(index[0])
    return pos, [*index[0], *index[1]], len(index[0])


def score_trials(session: ScoringSession, enroll, test, trials) -> np.ndarray:
    """Score (enroll_id, test_id) pairs against embedding tables.

    ``trials`` is read once and not kept: each pair becomes the positions
    of its two ids (``_positions``), and everything after reads those.
    Trials are scored in blocks whose trial rows take at most
    ``BLOCK_BYTES``. A whitening call asks the tables for the checked
    projections of its ids, in order of first use: raw vectors are checked
    as one matrix and projected, while a ``ProjectedTable`` looks up and
    checks each id's projection on its own; it made them when it was read,
    with the same bits. The ids are then whitened two at a time by the
    pair products that ``llr`` uses (``_pair_product``), so no Cholesky
    runs here and an id's rows have the same bits whatever id shares its
    product. A test id's K2 rows are stored negated, so a trial's rows are
    one add of its ids' rows. The row store holds the rows that may be
    kept plus those of one block's new ids, at most all ids, and one pad
    row. When it holds every id, all ids are whitened before the first
    block, at most twice a block's trials per call. Else a block's ids
    that hold no rows are whitened with it, and an id's rows are kept for
    a later block that uses it only while the rows kept take at most
    ``ROW_CACHE_BYTES``; rows over the bound are whitened again, which
    changes no bit. The output order matches the input order, and every
    score is bitwise equal to ``llr`` on the pair, for any number of
    conditions: no sum runs in a different order for one trial than for a
    block (see ``_q_block`` and ``_score_block``).

    Args:
      enroll / test: both mappings from id to raw embedding vector, or
        both ``ProjectedTable``s read with this session.
      trials: iterable of (enroll_id, test_id) pairs.

    Raises (for the first bad id in trial order, enroll id first; the
    same for a raw table and its ``ProjectedTable``):
      UnknownId: a trial references an id absent from its table.
      DimensionMismatch: a referenced embedding is not a vector of
        length d; the message names the id.
      NonFinite: a referenced embedding holds a NaN or an infinity, or a
        trial's score is NaN (overflow); the message names the ids.
    """
    tables = (enroll, test)
    projected = isinstance(enroll, ProjectedTable)
    if isinstance(test, ProjectedTable) != projected:
        raise TypeError("enroll and test must both be mappings or both ProjectedTables")
    if projected and (enroll.session is not session or test.session is not session):
        raise ValueError("a ProjectedTable must be read with the session that scores it")
    pairs_of = _projected_pairs if projected else _raw_pairs
    pos, ids, n_enroll = _positions(trials)
    n = len(pos)
    if not n:
        return np.empty(0)
    n_sum = session.rows.shape[0] // 3 * 2
    row_bytes = 8 * session.rows.shape[0]
    block = max(1, BLOCK_BYTES // max(1, row_bytes))
    # each position's first trial and last block
    trial = np.arange(n)[:, None]
    first = np.full(len(ids), n)
    np.minimum.at(first, pos, trial)
    trial //= block
    last = np.zeros(len(ids), np.intp)
    np.maximum.at(last, pos, trial)
    del trial
    out = np.empty(n)  # made once the indices are gone: one per-trial array beside pos
    # Rows are kept only for ids used in more than one block, and within
    # the bound; the last row of ``store`` takes the pad of an odd count.
    kept_max = min(int(np.count_nonzero(first // block != last)),
                   ROW_CACHE_BYTES // max(1, row_bytes))
    size = min(kept_max + 2 * block, len(ids)) + 1
    store = np.empty((size, session.rows.shape[0]))
    free = list(range(size - 1))
    slot = np.full(len(ids), -1)  # each position's row in store, or -1

    def whiten(new):
        # check the positions ``new`` in their order, give them rows in
        # store and whiten them; a test id's K2 rows are stored negated
        qs = new.tolist()
        projections = pairs_of(session, tables, [ids[q] for q in qs],
                               (new >= n_enroll).tolist())
        taken = free[len(free) - len(qs) :]
        del free[len(free) - len(qs) :]
        slot[new] = taken
        pairs = np.reshape(taken + [size - 1] * (len(qs) % 2), (-1, 2))
        store[pairs] = _whiten(session, projections).transpose(0, 2, 1)
        store[slot[new[new >= n_enroll]], n_sum:] *= -1.0

    def score(a, here):
        # s on the K1 rows and delta on the K2 rows: one add
        rows = store[slot[here[:, 0]]]
        rows += store[slot[here[:, 1]]]
        out[a : a + block] = _score_block(session, rows)

    def release(held):
        free.extend(slot[held].tolist())
        slot[held] = -1

    with np.errstate(all="ignore"):
        if size - 1 == len(ids):
            # every id has a row: whiten them all first, in order of first
            # use, enroll id first, at most a block's ids per call
            order = np.argsort(2 * first + (np.arange(len(ids)) >= n_enroll))
            for i in range(0, len(ids), 2 * block):
                whiten(order[i : i + 2 * block])
            for a in range(0, n, block):
                score(a, pos[a : a + block])
        else:
            # the positions last used in block b are done[ends[b] : ends[b + 1]]
            done = np.argsort(last, kind="stable")
            ends = np.concatenate(([0], np.cumsum(np.bincount(last))))
            for b, a in enumerate(range(0, n, block)):
                here = pos[a : a + block]
                new = here.reshape(-1)  # trial order, enroll id first
                new = new[slot[new] < 0]
                if new.size:
                    new = new[np.sort(np.unique(new, return_index=True)[1])]
                    whiten(new)
                score(a, here)
                # rows of ids last used here go; those over the bound went already
                gone = done[ends[b] : ends[b + 1]]
                release(gone[slot[gone] >= 0])
                # new ids used again stay only while the kept rows fit the bound
                over = size - 1 - len(free) - kept_max
                if over > 0:
                    release(new[slot[new] >= 0][:over])
    nan = np.flatnonzero(np.isnan(out))
    if nan.size:
        eid, tid = (ids[q] for q in pos[nan[0]].tolist())
        raise NonFinite(
            f"the score of trial ({eid!r}, {tid!r}) is NaN: its whitened projections overflowed"
        )
    return out
