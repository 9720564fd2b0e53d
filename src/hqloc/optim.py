"""Parameter update rules: Adam (primary) and plain SGD.

One optimizer state spans the full flat parameter vector, so quantum angles
and classical weights are updated jointly by the same rule. Both rules act
elementwise, so an (S, P) stack of parameter vectors takes one step for all
S vectors, each row as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    eta: float = 0.001


def init_adam(
    n_params: int | tuple[int, ...],
    eta: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """Fresh moment estimates (all zero) for parameters of length (or shape) ``n_params``."""
    return AdamState(
        m=np.zeros(n_params), v=np.zeros(n_params), t=0,
        beta1=beta1, beta2=beta2, eps=eps, eta=eta,
    )


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray
) -> tuple[AdamState, np.ndarray]:
    """One Adam update; returns the advanced state and the new parameters.

    m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2, then bias-corrected
    m_hat = m/(1-b1^t), v_hat = v/(1-b2^t) with t incremented first, and
    theta <- theta - eta * m_hat / (sqrt(v_hat) + eps), all elementwise.
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"length mismatch: params {params.shape}, grads {grads.shape}, "
            f"state {state.m.shape}"
        )
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradient entries")
    t = state.t + 1
    b1, b2 = state.beta1, state.beta2
    # The docstring's expression term by term, with the same operation order,
    # in four fresh arrays: the moments, a scratch term, and the new parameters.
    step = (1.0 - b1) * grads
    m = b1 * state.m
    m += step
    np.square(grads, out=step)
    step *= 1.0 - b2
    v = b2 * state.v
    v += step
    np.divide(v, 1.0 - b2**t, out=step)  # v_hat
    np.sqrt(step, out=step)
    step += state.eps
    new_params = m / (1.0 - b1**t)  # m_hat
    new_params *= state.eta
    new_params /= step
    np.subtract(params, new_params, out=new_params)
    return AdamState(m, v, t, b1, b2, state.eps, state.eta), new_params


def sgd_step(params: np.ndarray, grads: np.ndarray, eta: float) -> np.ndarray:
    """Plain gradient descent: theta <- theta - eta * g, elementwise."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape:
        raise ValueError(f"length mismatch: params {params.shape}, grads {grads.shape}")
    return params - eta * grads
