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
each node is built from the rows of its path by one Schur-complement
step. A hypothesis' path is one K1 node per level and one K2 node per
untied group, so

    Phi^T Sigma Phi = sum over the nodes X of its path of |X v|^2

with v = s for K1 nodes and v = delta for K2 nodes. A trial costs two
projections of size R_z and two matrix-vector products against the
stacked node rows, 3 * sum_k 2^k R_k rows of R_z columns in all; the
squares, the node norms, the path sums and each branch's log-sum-exp
are vectorized over a block of trials. ``llr`` and ``q_term`` take raw
vectors, check them like ``score_trials`` does, and apply the same
block function to one trial, so their Q terms are bitwise those of
``score_trials``.
"""

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import (
    AllHypothesesExcluded, DimensionMismatch, FactorizationFailed, NonFinite, SessionTooLarge,
    UnknownId,
)
from .hypothesis import (
    HypothesisVector,
    PriorConfig,
    enumerate_condition_hypotheses,
    hypothesis_log_prior,
)
from .model import ModelParams, stack_w

__all__ = ["ScoringSession", "precompute_session", "q_term", "llr", "score_trials"]

# Largest whitening rows a session may hold: 24 * R_z * sum_k 2^k R_k bytes.
MAX_WHITENING_BYTES = 1 << 30

# Bound on the whitened rows of one block of trials in ``score_trials``.
# On the tree rows of N = 2, 4 and 6 models (510, 1050 and 4080 rows),
# 256 KiB blocks score as fast as 512 KiB and 1 MiB blocks, and 64 KiB
# blocks lose 23 % at N = 4 (2-vCPU guest, 1 BLAS thread).
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class ScoringSession:
    """Immutable bundle of a model plus the prefix tree of its 2^(N+1)
    hypothesis factorizations.

    Build once with :func:`precompute_session`, then score any number of
    trials; all members are read-only. ``factorizations`` maps each
    ``HypothesisVector`` to its position i: same-speaker branch first,
    each branch in ``enumerate_condition_hypotheses`` order. Indexed by
    i are ``half_log_det_sigma`` (0.5 log|Sigma|) and ``log_prior``
    (-inf allowed; the session's only copy of the priors).

    The tree's nodes are stored once each: the rows of the K1 nodes
    (2^(k+1) at level k) in ``w_sum`` and those of the K2 nodes (2^k at
    level k) in ``w_diff``, every row padded to R_z columns. Numbering
    the rows of ``w_sum`` and then those of ``w_diff`` in one sequence,
    ``node_starts`` holds the first row of every node that has rows.
    Column i of ``paths`` lists hypothesis i's nodes by their position in
    ``node_starts``, padded with -1, which stands for a node of norm 0.
    The table is C-contiguous, one row per path position, so the path
    sums add along an axis whose stride does not depend on the block.
    """

    model: ModelParams
    factorizations: MappingProxyType
    half_log_det_sigma: np.ndarray
    log_prior: np.ndarray
    dw: np.ndarray
    w_sum: np.ndarray
    w_diff: np.ndarray
    node_starts: np.ndarray
    paths: np.ndarray

    def project(self, centered: np.ndarray) -> np.ndarray:
        """All factor loadings' noise-weighted projections W^T D m of one
        centered vector, stacked in model order (length R_z)."""
        return self.dw.T @ centered


class _Node(NamedTuple):
    side: int
    start: int
    size: int
    log_diag: float


@dataclass
class _Tree:
    """The prefix tree while ``precompute_session`` fills it.

    Node (side, ties) holds the rows for latent group k = len(ties) - 1
    under the tie bits ``ties`` of groups 0..k: on side 0 rows of L1^-1,
    from row ``start`` of ``w[0]``, and on side 1, only for an untied
    group k, rows of L2^-1 in ``w[1]``. ``nodes`` maps each node built so
    far to its rows and the sum of the log diagonal of its Cholesky
    block. ``stacks`` are work space, R_z x R_z per side, and ``held[side]``
    lists the nodes whose rows the side's stack holds, in order: path rows
    are copied there only when a node below them is built, and only from
    the first level where the path leaves what the stack holds.

    The two K1 children of a node differ only by the diagonal added to
    their Cholesky block, so they share its Schur products: ``shared``
    maps the tie bits of a K1 node's parent to its Schur block before the
    diagonal and the product E P, from the build of the first child until
    the second one takes them.
    """

    gram2: np.ndarray
    groups: list
    w: tuple
    filled: list
    nodes: dict
    stacks: tuple
    held: tuple
    shared: dict


def _cholesky_lower(tree: _Tree, hypothesis: HypothesisVector) -> list:
    """Factorize the nodes on one hypothesis' path that ``tree`` lacks, in
    level order, K1 side first; returns the path's nodes.

    The rows P of L^-1 for groups 0..k-1 are the first rows of the side's
    stack once the path's nodes are copied there (lazily, see ``_Tree``).
    With B the block of the precision between those groups' columns and
    group k's, C group k's diagonal block and E^T = P B, a new node's
    Cholesky block is F = chol(C - E E^T + diag) and its rows of L^-1 are
    [-F^-1 E P, F^-1]. A K1 node's sibling has the same P, B and C, so
    C - E E^T and E P are computed once for both. On side 1 the tied
    groups' columns of P are zero, so they add nothing to E.
    """
    flags = (hypothesis.speaker_tied,) + hypothesis.condition_tied
    path = []
    for side in (0, 1):
        side_path = []
        for k, g in enumerate(tree.groups):
            if side == 1 and flags[k]:
                continue
            key = (side, flags[: k + 1])
            node = tree.nodes.get(key)
            if node is None:
                node = tree.nodes[key] = _build_node(tree, hypothesis, key, g, side_path)
            side_path.append(node)
        path += side_path
    return path


def _build_node(tree: _Tree, hypothesis, key, g: slice, above: list) -> _Node:
    """Factorize node ``key`` for group ``g`` below the nodes ``above``."""
    side, ties = key
    r = g.stop - g.start
    products = tree.shared.pop(ties[:-1], None) if side == 0 else None
    if products is None:
        p = tree.stacks[side][: _hold(tree, side, above), : g.start]
        e_t = p @ tree.gram2[: g.start, g]
        schur = tree.gram2[g, g] - e_t.T @ e_t
        # dpotrf would pass an infinity, and never reads the upper triangle
        if not np.isfinite(schur).all():
            raise _not_positive_definite(hypothesis)
        ep = e_t.T @ p
        if side == 0:
            tree.shared[ties[:-1]] = (schur, ep)
            schur = schur.copy()
    else:
        schur, ep = products
    schur.reshape(-1)[:: r + 1] += 1.0 if side == 0 and ties[-1] else 2.0
    chol, info = dpotrf(schur, lower=1, clean=1)
    if info != 0:
        raise _not_positive_definite(hypothesis)
    inv = _lower_inverse(chol)
    w = tree.w[side]
    start = tree.filled[side]
    tree.filled[side] += r
    np.matmul(-inv, ep, out=w[start : start + r, : g.start])
    w[start : start + r, g] = inv
    return _Node(side, start, r, float(np.log(chol.diagonal()).sum()))


def _not_positive_definite(hypothesis) -> FactorizationFailed:
    return FactorizationFailed(
        f"posterior precision for hypothesis {hypothesis} is not positive "
        "definite; check the model's noise precision"
    )


def _hold(tree: _Tree, side: int, nodes: list) -> int:
    """Make the side's stack hold the rows of ``nodes``, in order, copying
    only those it does not hold yet; returns their row count."""
    held, stack, w = tree.held[side], tree.stacks[side], tree.w[side]
    same = 0
    while same < min(len(held), len(nodes)) and held[same] is nodes[same]:
        same += 1
    del held[same:]
    m = sum(n.size for n in held)
    for n in nodes[same:]:
        stack[m : m + n.size] = w[n.start : n.start + n.size]
        m += n.size
        held.append(n)
    return m


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    # K >= I, so every Schur complement of K is >= I too and bounds
    # |F^-1|_2 by 1: applying the explicit inverse is as stable as a
    # triangular solve.
    if chol.shape[0] == 0:
        return chol
    inv, info = dtrtri(chol, lower=1)
    if info != 0:
        raise FactorizationFailed(f"triangular inverse failed (LAPACK info {info})")
    return inv


def precompute_session(model: ModelParams, priors: PriorConfig) -> ScoringSession:
    """Factorize every hypothesis once, as paths of a shared prefix tree
    built from one Gram matrix W^T D W.

    Each node is factorized once, by the first hypothesis on its path.
    Sibling K1 nodes share their Schur products, and a path's rows are
    copied to the work stack only when a node below them is built (see
    ``_Tree``); neither changes a bit of the session.

    Raises:
      DimensionMismatch: the priors do not cover the model's conditions.
      SessionTooLarge: the tree's whitening rows, 24 * R_z * sum_k 2^k R_k
        bytes, would exceed ``MAX_WHITENING_BYTES``; checked before
        anything is allocated or factorized.
      FactorizationFailed: some posterior precision was not numerically
        SPD (overflowing or otherwise broken model parameters).
    """
    if priors.n_conditions != model.n_conditions:
        raise DimensionMismatch(
            f"priors cover {priors.n_conditions} conditions, model has {model.n_conditions}"
        )
    n_cond, r_z = model.n_conditions, model.r_z
    sizes = (model.r_y,) + model.r_x
    per_side = sum(2**k * r for k, r in enumerate(sizes))
    size = 24 * r_z * per_side
    if size > MAX_WHITENING_BYTES:
        raise SessionTooLarge(
            f"N={n_cond} conditions and R_z={r_z} latents need {size} bytes of "
            f"whitening rows, above the limit of {MAX_WHITENING_BYTES} bytes"
        )
    w = stack_w(model)
    dw = model.D @ w
    dw.setflags(write=False)
    gram = w.T @ dw
    ends = list(itertools.accumulate(sizes))
    # Both sides' rows in one block: freed as one piece, it raises glibc's
    # heap trim threshold above what a session frees, so the heap is kept
    # between sessions. Split in two, the heap is handed back and faulted
    # in again: 2400 page faults and 8 ms of system time (quartiles 0.1
    # and 6.9 ms) per `jplda score` on the d=512, N=6 model.
    rows = np.zeros((3 * per_side, r_z))
    tree = _Tree(
        gram2=gram + gram.T,
        groups=[slice(end - r, end) for end, r in zip(ends, sizes)],
        w=(rows[: 2 * per_side], rows[2 * per_side :]),
        filled=[0, 0],
        nodes={},
        stacks=(np.zeros((r_z, r_z)), np.zeros((r_z, r_z))),
        held=([], []),
        shared={},
    )

    cond_hyps = enumerate_condition_hypotheses(n_cond)
    hyps = [HypothesisVector(spk, c) for spk in (True, False) for c in cond_hyps]
    # Overflow leaves a non-finite Schur block, which raises FactorizationFailed.
    with np.errstate(all="ignore"):
        node_paths = [_cholesky_lower(tree, h) for h in hyps]
    stored = sorted((n.side, n.start) for n in tree.nodes.values() if n.size)
    position = {node: i for i, node in enumerate(stored)}
    node_starts = np.array([start + side * 2 * per_side for side, start in stored], dtype=np.intp)
    width = 2 * (n_cond + 1)
    columns = []
    half_log_det_sigma = np.empty(len(hyps))
    for i, path in enumerate(node_paths):
        used = [position[n.side, n.start] for n in path if n.size]
        columns.append(used + [-1] * (width - len(used)))
        n_d = sum(n.size for n in path if n.side == 1)
        half_log_det_sigma[i] = n_d * math.log(2.0) - math.fsum(n.log_diag for n in path)
    paths = np.array(columns, dtype=np.intp).T.copy()
    log_prior = np.array([hypothesis_log_prior(h, priors) for h in hyps])
    w_sum, w_diff = tree.w
    for a in (half_log_det_sigma, log_prior, w_sum, w_diff, node_starts, paths):
        a.setflags(write=False)
    return ScoringSession(
        model=model,
        factorizations=MappingProxyType({h: i for i, h in enumerate(hyps)}),
        half_log_det_sigma=half_log_det_sigma,
        log_prior=log_prior,
        dw=dw,
        w_sum=w_sum,
        w_diff=w_diff,
        node_starts=node_starts,
        paths=paths,
    )


def _q_block(session: ScoringSession, proj_e, proj_t) -> np.ndarray:
    """Every hypothesis' Q for the trials whose projections are the rows
    of proj_e / proj_t, shape (n, 2, 2^N): [trial, branch, hypothesis].

    Every trial gets its own two matrix-vector products, written into
    rows allocated up front; the node norms, the path sums and every
    other reduction run along an axis whose length does not depend on
    the block, and the path sums along the rows of ``paths``, never a
    contiguous axis. So a trial's Q has the same bits in a block of any
    size.
    Overflow shows up as inf or NaN without a warning.
    """
    n = proj_e.shape[0]
    n_sum = session.w_sum.shape[0]
    rows = np.empty((n, n_sum + session.w_diff.shape[0]))
    norms = np.zeros((n, session.node_starts.size + 1))  # the last column stays 0
    with np.errstate(all="ignore"):
        s = proj_e + proj_t
        delta = proj_e - proj_t
        for i in range(n):
            np.dot(session.w_sum, s[i], out=rows[i, :n_sum])
            np.dot(session.w_diff, delta[i], out=rows[i, n_sum:])
        np.multiply(rows, rows, out=rows)
        norms[:, :-1] = np.add.reduceat(rows, session.node_starts, axis=1)
        quad = norms[:, session.paths].sum(axis=1)
        q = session.half_log_det_sigma + session.log_prior + 0.5 * quad
    return q.reshape(n, 2, -1)


def _score_block(session: ScoringSession, proj_e, proj_t) -> np.ndarray:
    """LLRs of a block of trials: each branch's log-sum-exp over ``_q_block``.

    exp and log see whole contiguous arrays, and the terms are stored
    hypothesis-major, so each branch's sum adds them one at a time in
    hypothesis order (a sum along a contiguous axis would be pairwise for
    a single trial only). So a score has the same bits in a block of any
    size. Overflow shows up as NaN, which the callers turn into NonFinite.

    Raises AllHypothesesExcluded when a whole branch has prior zero.
    """
    top_prior = session.log_prior.reshape(2, -1).max(axis=1).tolist()
    if -math.inf in top_prior:
        name = ("same-speaker", "different-speaker")[top_prior.index(-math.inf)]
        raise AllHypothesesExcluded(f"every hypothesis in the {name} branch has prior 0")
    q = _q_block(session, proj_e, proj_t)
    n, _, n_hyp = q.shape
    terms = np.empty((n_hyp, n, 2)).transpose(1, 2, 0)
    with np.errstate(all="ignore"):
        top = q.max(axis=2)
        np.subtract(q, top[..., None], out=terms)
        np.exp(terms, out=terms)
        lse = top + np.log(terms.sum(axis=2))
        return lse[:, 0] - lse[:, 1]


def _project_raw(session: ScoringSession, m, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (session.model.d,):
        raise DimensionMismatch(
            f"{what} has shape {m.shape}, expected a vector of length {session.model.d}"
        )
    if not np.isfinite(m).all():
        raise NonFinite(f"{what} contains non-finite values")
    return session.project(m - session.model.mu)


def _one_trial(session: ScoringSession, m_enroll, m_test) -> tuple:
    """Projections of one raw trial, each as a block of one row."""
    return (
        _project_raw(session, m_enroll, "enroll vector")[None, :],
        _project_raw(session, m_test, "test vector")[None, :],
    )


def llr(session: ScoringSession, m_enroll, m_test) -> float:
    """Log-likelihood ratio for one trial; inputs are raw (uncentered).

    Raises:
      AllHypothesesExcluded: one branch has zero total prior.
      DimensionMismatch: an input is not a vector of length d; the
        message names the enroll or the test vector.
      NonFinite: an input holds a NaN or an infinity, or the score is NaN
        because the trial's whitened projections overflowed.
    """
    score = float(_score_block(session, *_one_trial(session, m_enroll, m_test))[0])
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
    i = session.factorizations[hv]
    q = float(_q_block(session, *_one_trial(session, m_enroll, m_test)).reshape(-1)[i])
    if math.isnan(q) or q == math.inf:
        raise NonFinite(f"the term of {hv} is {q}: the trial's whitened projections overflowed")
    return q


def score_trials(session: ScoringSession, enroll, test, trials) -> np.ndarray:
    """Score a list of (enroll_id, test_id) pairs against embedding tables.

    Projections are computed once per referenced id; the whitening rows
    come from the session, so no Cholesky runs here.
    Trials are scored in blocks whose whitened rows take at most
    ``BLOCK_BYTES``. The output order matches the input order, and every
    score is bitwise equal to ``llr`` on the pair, for any number of
    conditions: no sum runs in a different order for one trial than for
    a block (see ``_q_block`` and ``_score_block``).

    Args:
      enroll / test: mappings from id to raw embedding vector.
      trials: sequence of (enroll_id, test_id) pairs.

    Raises:
      UnknownId: a trial references an id absent from its table.
      DimensionMismatch: a referenced embedding is not a vector of
        length d; the message names the id.
      NonFinite: a referenced embedding holds a NaN or an infinity, or a
        trial's score is NaN (overflow); the message names the ids.
      AllHypothesesExcluded: one branch has zero total prior.
    """
    trials = [(e, t) for e, t in trials]
    proj_e, proj_t = {}, {}
    for eid, tid in trials:
        if eid not in proj_e:
            if eid not in enroll:
                raise UnknownId(f"unknown enroll id {eid!r}")
            proj_e[eid] = _project_raw(session, enroll[eid], f"enroll id {eid!r}")
        if tid not in proj_t:
            if tid not in test:
                raise UnknownId(f"unknown test id {tid!r}")
            proj_t[tid] = _project_raw(session, test[tid], f"test id {tid!r}")

    out = np.empty(len(trials))
    if not trials:
        return out
    row_bytes = 8 * (session.w_sum.shape[0] + session.w_diff.shape[0])
    block = max(1, BLOCK_BYTES // row_bytes)
    for a in range(0, len(trials), block):
        chunk = trials[a : a + block]
        block_e = np.array([proj_e[e] for e, _ in chunk])
        block_t = np.array([proj_t[t] for _, t in chunk])
        out[a : a + len(chunk)] = _score_block(session, block_e, block_t)
    nan = np.flatnonzero(np.isnan(out))
    if nan.size:
        eid, tid = trials[nan[0]]
        raise NonFinite(
            f"the score of trial ({eid!r}, {tid!r}) is NaN: its whitened projections overflowed"
        )
    return out
