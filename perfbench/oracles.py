"""Independent output oracles, one per workload.

Each oracle recomputes the answer of an operation from its config alone,
by a different route than qpool takes, and returns a list of mismatch
descriptions (empty when the outputs are right).  An operation with a
mismatch counts as failed.

Tolerances:

* ``STATE_TOL`` (absolute, 1e-9): matrix entries of states, bases and
  recovered marginals, traces and trace distances.  It matches the default
  rank and positivity tolerances of ``qpool.linalg``; the oracles agree
  with correct outputs to about 1e-15.
* ``PROBABILITY_RTOL`` (relative, 1e-9): outcome probabilities, which can
  be as small as 1e-8 for large histories.
* ``MC_SIGMAS`` (6): Monte-Carlo predictive entries must lie within this
  many standard errors of the exact value; the standard error comes from
  the effective sample size of the prior ensemble under the posterior.
* ``WEIGHT_STEP`` (1e-4): a reported maximal common weight, raised by this
  relative step, must make the remainder non-PSD.
"""

from __future__ import annotations

import math

import numpy as np

STATE_TOL = 1e-9
PROBABILITY_RTOL = 1e-9
MC_SIGMAS = 6.0
WEIGHT_STEP = 1e-4

# 400-node Gauss-Legendre on [0, 1]: exact for polynomials of degree <= 799,
# which covers the pooled likelihood of 2 x 150 effects and its square.
_LEG_X, _LEG_W = np.polynomial.legendre.leggauss(400)
_R = (_LEG_X + 1.0) / 2.0
_W = _LEG_W / 2.0


def matrix(lit) -> np.ndarray:
    arr = np.asarray(lit, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _close(name: str, got, want, tol: float = STATE_TOL) -> list:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = float(np.abs(got - want).max()) if got.size else 0.0
    return [] if err <= tol else [f"{name}: off by {err:.3e} (tol {tol:g})"]


def _min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0])


# --- histories -------------------------------------------------------------


def check_history(cfg: dict, _expected, out: dict) -> list:
    """Apply the Kraus steps in order to I/d.

    A step whose owner's composite digit is known applies that outcome's
    operator; any other step applies the sum over its outcomes.
    """
    steps = cfg["payload"]["steps"]
    known = cfg["payload"]["known"]
    families = [[matrix(m) for m in step["kraus"]] for step in steps]
    sizes = {"alice": 1, "bob": 1, "eve": 1}
    for step in steps:
        sizes[step["owner"]] *= len(step["kraus"])
    digits = {}
    for key, owner in (("i", "alice"), ("j", "bob")):
        if key in known:
            value = known[key]
            for k in reversed([k for k, s in enumerate(steps) if s["owner"] == owner]):
                digits[k] = value % len(families[k])
                value //= len(families[k])
    dim = families[0][0].shape[0]
    rho = np.eye(dim, dtype=complex) / dim
    for k, family in enumerate(families):
        chosen = [family[digits[k]]] if k in digits else family
        rho = sum(m @ rho @ m.conj().T for m in chosen)
    prob = float(np.trace(rho).real)
    errors = []
    for key, owner in (("i_max", "alice"), ("j_max", "bob"), ("e_max", "eve")):
        if out[key] != sizes[owner]:
            errors.append(f"{key}: {out[key]} != {sizes[owner]}")
    if not out["completeness_residual"] <= STATE_TOL:
        errors.append(f"completeness_residual {out['completeness_residual']:.3e}")
    if abs(out["probability"] - prob) > PROBABILITY_RTOL * prob:
        errors.append(f"probability: {out['probability']!r} != {prob!r}")
    return errors + _close("state", matrix(out["state"]), rho / prob)


# --- realizations ----------------------------------------------------------


def _check_max_weight(name: str, rho, sigma, alpha_max: float) -> list:
    """alpha_max keeps rho - alpha sigma PSD, and no larger weight does."""
    errors = []
    if _min_eig(rho - alpha_max * sigma) < -STATE_TOL:
        errors.append(f"{name}: rho - alpha_max sigma is not PSD")
    if alpha_max < 1.0 and _min_eig(rho - alpha_max * (1 + WEIGHT_STEP) * sigma) >= -STATE_TOL:
        errors.append(f"{name}: alpha_max {alpha_max!r} is not maximal")
    return errors


def check_realization(cfg: dict, shared: np.ndarray, out: dict) -> list:
    kind, payload = cfg["kind"], cfg["payload"]
    rho_a, rho_b = matrix(payload["rho_a"]), matrix(payload["rho_b"])
    projector = shared @ shared.conj().T
    if kind == "consistency":
        basis = matrix(out["intersection_basis"]).reshape(rho_a.shape[0], -1)
        errors = [] if out["consistent"] is True else ["verdict: inconsistent"]
        if out["intersection_dimension"] != shared.shape[1]:
            return errors + [f"intersection_dimension {out['intersection_dimension']} != {shared.shape[1]}"]
        return (
            errors
            + _close("basis orthonormality", basis.conj().T @ basis, np.eye(basis.shape[1]))
            + _close("basis inside intersection", projector @ basis, basis)
        )
    if kind == "realize":
        sigma = matrix(payload["sigma"])
        return (
            _close("rho_a_recovered", matrix(out["rho_a_recovered"]), rho_a)
            + _close("rho_b_recovered", matrix(out["rho_b_recovered"]), rho_b)
            + _close("charlie_state", matrix(out["charlie_state"]), sigma)
            + _close("outcome_probs", out["outcome_probs"], out["predicted_probs"])
            + _close("alpha", out["alpha"], out["alpha_max"] / 2)
            + _close("beta", out["beta"], out["beta_max"] / 2)
            + _check_max_weight("alpha_max", rho_a, sigma, out["alpha_max"])
            + _check_max_weight("beta_max", rho_b, sigma, out["beta_max"])
        )
    if kind == "ambiguity":
        sigma_1, sigma_2 = matrix(payload["sigma_1"]), matrix(payload["sigma_2"])
        distance = 0.5 * float(np.abs(np.linalg.eigvalsh(sigma_1 - sigma_2)).sum())
        return (
            _close("trace_distance", out["trace_distance"], distance)
            + _close("charlie_1", matrix(out["charlie_1"]), sigma_1)
            + _close("charlie_2", matrix(out["charlie_2"]), sigma_2)
            + _close("charlie_deviations", out["charlie_deviations"], [0.0, 0.0])
        )
    fused = matrix(out["fused"])
    errors = [] if out["n_samples"] == payload["n_samples"] else ["n_samples not echoed"]
    if out["label"] != "EXPLORATORY":
        errors.append(f"label {out['label']!r}")
    if _min_eig(fused) < -STATE_TOL:
        errors.append("fused state is not PSD")
    leak = float(np.trace(fused).real - np.trace(projector @ fused @ projector).real)
    return (
        errors
        + _close("fused hermiticity", fused, fused.conj().T)
        + _close("fused trace", float(np.trace(fused).real), 1.0)
        + _close("fused weight outside intersection", leak, 0.0)
    )


# --- posteriors ------------------------------------------------------------


def _log_likelihood(effects) -> np.ndarray:
    """log q(r) on the quadrature nodes, q(r) = prod_x ((2x - 1) r + 1 - x)."""
    xs = np.asarray(effects, dtype=float).reshape(-1, 1)
    if xs.size == 0:
        return np.zeros_like(_R)
    return np.log((2.0 * xs - 1.0) * _R + (1.0 - xs)).sum(axis=0)


def _predictive(log_q: np.ndarray) -> np.ndarray:
    q = _W * np.exp(log_q - log_q.max())
    top = float((q * _R).sum() / q.sum())
    return np.diag([top, 1.0 - top]).astype(complex)


def _mc_errors(log_q: np.ndarray, n_samples: int, mc: np.ndarray) -> list:
    """Compare the Monte-Carlo predictive state with the exact one.

    Samples come from the flat prior on r = |c_0|^2 and are weighted by q,
    so the effective sample size is ESS = n m0^2 / int q^2, and the standard
    error of a weighted mean of f is sqrt(Var_{q^2}(f) / ESS).
    """
    scaled = np.exp(log_q - log_q.max())
    m0 = float((_W * scaled).sum())
    q2 = _W * scaled**2
    top = float((_W * scaled * _R).sum() / m0)
    ess = n_samples * m0**2 / float(q2.sum())
    se_top = math.sqrt(float((q2 * (_R - top) ** 2).sum() / q2.sum()) / ess)
    se_off = math.sqrt(float((q2 * _R * (1.0 - _R)).sum() / q2.sum()) / ess)
    errors = []
    if abs(mc[0, 0].real - top) > MC_SIGMAS * se_top:
        errors.append(f"mc_predictive_a top {mc[0, 0].real!r} vs {top!r} (se {se_top:.2e}, ess {ess:.0f})")
    if abs(mc[0, 1]) > MC_SIGMAS * se_off:
        errors.append(f"mc_predictive_a coherence {abs(mc[0, 1]):.3e} (se {se_off:.2e})")
    return errors + _close("mc_predictive_a trace", float(np.trace(mc).real), 1.0)


def check_posterior(cfg: dict, _expected, out: dict) -> list:
    """Predictive states by 400-node Gauss-Legendre quadrature in log space."""
    payload = cfg["payload"]
    log_a = _log_likelihood(payload["effects_a"])
    log_b = _log_likelihood(payload.get("effects_b", []))
    errors = (
        _close("predictive_a", matrix(out["predictive_a"]), _predictive(log_a))
        + _close("predictive_b", matrix(out["predictive_b"]), _predictive(log_b))
        + _close("pooled", matrix(out["pooled"]), _predictive(log_a + log_b))
    )
    if "mc_samples" in payload:
        errors += _mc_errors(log_a, payload["mc_samples"], matrix(out["mc_predictive_a"]))
    return errors


ORACLES = {
    "histories": check_history,
    "realizations": check_realization,
    "posteriors": check_posterior,
}
