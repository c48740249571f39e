"""Rate/weight dual transforms and finite-matrix similarity verification.

The forward map swaps birth and death roles with a one-step shift; absorbing
and reflecting ends exchange. Both directions keep a record of which boundary
convention produced the dual, so round trips are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, SingularM, WrongShape
from .model import DEFAULT_NMAX, BoundaryCode, ChainModel, _rates_and_weights, build_weights

CHECK_WINDOW = 256   # states on which dualize checks the weight identities


@dataclass(frozen=True)
class DualPair:
    primal: ChainModel
    dual: ChainModel
    direction: str
    n_prime: object            # int or None
    weight_residual: float     # max relative error of the weight identities


def dualize(model: ChainModel, direction: str = "forward_5_1") -> DualPair:
    """Forward: (a, b) on {0..N} with b_0 > 0 -> (b_{i-1}, a_i) on {1..N'}.
    Inverse: (a, b) on {1..N} with a_1 > 0 -> (b_i, a_{i+1}) on {0..N}.

    The dual of a Dirichlet end is a Neumann end and vice versa; the length
    bookkeeping follows the finite-top convention of the chosen direction.
    The weight identities are checked on the first CHECK_WINDOW states.
    """
    if direction == "forward_5_1":
        if model.boundary not in (BoundaryCode.ND, BoundaryCode.NN) or model.base != 0:
            raise WrongShape("forward dual needs a reflecting origin (b_0 > 0)")
        N = model.hi
        top_reflecting = model.boundary is BoundaryCode.NN  # b_N = 0 convention
        if N is None:
            n_prime = None
        else:
            n_prime = N if top_reflecting else N + 1

        def d_birth(i):   # b^_i = a_i (0 past the primal top, by convention)
            i = np.asarray(i, dtype=np.int64)
            if N is None:
                return np.asarray(model.death(i), dtype=float)
            vals = np.asarray(model.death(np.minimum(i, N)), dtype=float)
            return np.where(i <= N, vals, 0.0)

        def d_death(i):   # a^_i = b_{i-1}
            return np.asarray(model.birth(np.asarray(i, dtype=np.int64) - 1), dtype=float)

        code = BoundaryCode.DD if model.boundary is BoundaryCode.NN else BoundaryCode.DN
        b0 = float(model.rates(0, 0)[1][0])
        hint = _forward_hint(model, b0)
        dual = ChainModel(code, 1, n_prime, d_birth, d_death, tail_hint=hint,
                          name=model.name + "_dual", params=dict(model.params))
    elif direction == "inverse_7_3":
        if model.boundary not in (BoundaryCode.DD, BoundaryCode.DN) or model.base != 1:
            raise WrongShape("inverse dual needs the Dirichlet-at-origin shape")
        N = model.hi

        def d_birth(i):   # b^_i = a_{i+1}
            return np.asarray(model.death(np.asarray(i, dtype=np.int64) + 1), dtype=float)

        def d_death(i):   # a^_i = b_i
            return np.asarray(model.birth(np.asarray(i, dtype=np.int64)), dtype=float)

        code = BoundaryCode.NN if model.boundary is BoundaryCode.DD else BoundaryCode.ND
        dual = ChainModel(code, 0, N, d_birth, d_death,
                          name=model.name + "_dual", params=dict(model.params))
        n_prime = N
    else:
        raise WrongShape("direction must be forward_5_1 or inverse_7_3")
    residual = _weight_identity_residual(model, dual, direction, CHECK_WINDOW)
    return DualPair(model, dual, direction, n_prime, residual)


def _forward_hint(model: ChainModel, b0: float):
    """Transfer tails through the exact weight identities
    mu^[n, N'] = b_0 nu[n-1, N] and nu^_b-tail(n) = mu[n, N] / b_0.

    Closed-form primal hints carry over; otherwise the primal's own tails, on
    DEFAULT_NMAX + 1 states that end where the dual's default window does, are
    handed down so both sides of every duality identity consume one set of
    numbers. Like the primal's, the dual hints take an index or an index array.
    """
    nu_tail = model.hint("nu_b_tail")
    mu_tail = model.hint("mu_tail")
    if nu_tail is None or mu_tail is None:
        wp = build_weights(model, DEFAULT_NMAX + 1)
        nu_tail = nu_tail or (lambda n: wp.nu_tail(n, "b"))
        mu_tail = mu_tail or wp.mu_tail
    return {"mu_tail": lambda n: b0 * nu_tail(n - 1), "nu_b_tail": lambda n: mu_tail(n) / b0}


def _weight_identity_residual(primal: ChainModel, dual: ChainModel,
                              direction: str, window: int) -> float:
    """Check mu^_n = b_0 nu_{n-1} and nu^_n = mu_{n-1}/b_0 (or the 7.3 analogue)."""
    wp = build_weights(primal, window)
    wd = build_weights(dual, window)
    n = min(len(wp.mu) - 1, len(wd.mu))
    if n < 2:
        return 0.0
    if direction == "forward_5_1":
        b0 = float(wp.b[0])
        lhs_mu = wd.mu[:n]
        rhs_mu = b0 * wp.nu_b[:n]
        lhs_nu = wd.nu_a[:n]
        rhs_nu = wp.mu[:n] / b0
    else:
        a1 = float(wp.a[0])
        lhs_mu = wd.mu[1:n]
        rhs_mu = a1 * wp.nu_a[1:n]          # mu^_n = a_1 nu_{n} in the 7.3 frame
        lhs_nu = wd.nu_b[1:n]
        rhs_nu = wp.mu[: n - 1] / a1
    def rel(x, y):
        sel = np.isfinite(x) & np.isfinite(y)
        if not sel.any():
            return 0.0
        d = np.abs(x[sel] - y[sel]) / np.maximum(np.maximum(np.abs(x[sel]), np.abs(y[sel])), 1e-300)
        return float(np.max(d))
    return max(rel(lhs_mu, rhs_mu), rel(lhs_nu, rhs_nu))


def v_transform(v: np.ndarray, direction: str, model: ChainModel = None) -> np.ndarray:
    """Test-sequence maps between the ratio and difference-ratio frames.

    eq_2_35 sends (v_i) to ((1 - v_{i+1}) / (1/v_i - 1)) and needs v_i in
    (0, 1) at interior indices; eq_5_7 multiplies by b_i/a_i of the supplied
    primal model (one-step shift), producing the dual's test sequence.
    """
    v = np.asarray(v, dtype=float)
    if direction == "eq_2_35":
        if np.any(v[:-1] >= 1.0) or np.any(v <= 0.0):
            raise DomainViolation("eq_2_35 needs v_i in (0, 1) at interior indices")
        return (1.0 - v[1:]) / (1.0 / v[:-1] - 1.0)
    if direction == "eq_5_7":
        if model is None:
            raise WrongShape("eq_5_7 needs the primal model for its rates")
        a, b, _ = model.rates(1, len(v))
        return (b / a) * v
    raise WrongShape("direction must be eq_2_35 or eq_5_7")


def _q_matrix(a: np.ndarray, b: np.ndarray, c=0.0) -> np.ndarray:
    """The generator of death rates ``a``, birth rates ``b`` and killing ``c``
    on consecutive states: a[0] and b[-1] leave the range (0 where that end
    reflects)."""
    return np.diag(a[1:], -1) + np.diag(b[:-1], 1) - np.diag(a + c + b)


def similarity_check(model: ChainModel, n: int = 8) -> float:
    """Max-abs residual of M Q M^{-1} against the dual generator.

    Reflecting-origin models use the weighted-difference M (rows of mu_j b_j),
    Dirichlet-origin duals come back through the plain-mu M after eliminating
    the trivial first row and column. Positive weights keep M invertible; a
    singular M is reported defensively.
    """
    if n < 2 or n > 64:
        raise WrongShape("similarity check is a dense, small-n verification")
    if model.boundary not in (BoundaryCode.ND, BoundaryCode.NN) or model.base != 0:
        raise WrongShape("similarity check starts from a reflecting-origin model")
    a, b, c, _, mu = _rates_and_weights(model, n - 1)[:5]
    if model.boundary is BoundaryCode.ND:
        # section-5 construction: truncation absorbs at n (b_{n-1} kept)
        mb = mu * b
        if np.any(mb <= 0):
            raise SingularM("weighted rows must be positive")
        M = np.diag(mb) - np.diag(mb[:-1], 1)
        Minv = np.triu(np.tile(1.0 / mb, (n, 1)))
        # dual generator on {1..n}: death b_{i-1}, birth a_i, reflect at n
        Qh = _q_matrix(b, np.append(a[1:n], 0.0))
        return float(np.max(np.abs(M @ _q_matrix(a, b, c) @ Minv - Qh)))
    # NN: section-7 construction with the plain-mu M; reflect at n-1
    M = np.triu(np.tile(mu, (n, 1)))
    Minv = np.diag(1.0 / mu) - np.diag(1.0 / mu[:-1], 1)
    lhs = M @ _q_matrix(a, np.append(b[:-1], 0.0), c) @ Minv
    # the dual generator on {1..n-1}: death b_{i-1}, birth a_i, exits at both ends
    Qh = _q_matrix(b[:n - 1], a[1:n])
    return max(float(np.max(np.abs(lhs[0, :]))), float(np.max(np.abs(lhs[1:, 1:] - Qh))))
