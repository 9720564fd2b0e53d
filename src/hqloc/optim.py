"""Parameter update rules: Adam (primary) and plain SGD.

One optimizer state spans the full flat parameter vector, so quantum angles
and classical weights are updated jointly by the same rule. Both rules act
elementwise, so an (S, P) stack of parameter vectors takes one step for all
S vectors, each row as it would alone.

Both steps write into ``params`` in place and return it, and Adam also
advances its moments in place. :func:`init_adam` builds the moments and two
scratch arrays of the parameters' shape once, so a training loop's Adam
steps allocate nothing of that size. A step checks its arguments before it
writes anything: a step Adam refuses leaves the parameters and the state as
they were.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class AdamState:
    """Adam's moments after ``t`` steps; ``m`` and ``v`` advance in place.

    ``scratch`` holds two arrays of the moments' shape for the step's
    intermediate terms; it is built here unless given.
    """

    m: np.ndarray
    v: np.ndarray
    t: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    eta: float = 0.001
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.scratch is None:
            object.__setattr__(self, "scratch", np.empty((2, *np.shape(self.m))))


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
    """One Adam update of ``params`` in place; returns the advanced state and ``params``.

    m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2, then bias-corrected
    m_hat = m/(1-b1^t), v_hat = v/(1-b2^t) with t incremented first, and
    theta <- theta - eta * m_hat / (sqrt(v_hat) + eps), all elementwise.
    The returned state shares ``state``'s arrays, with ``t`` one higher. A
    shape mismatch or a non-finite gradient raises ValueError before
    anything is written.
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"length mismatch: params {params.shape}, grads {grads.shape}, "
            f"state {state.m.shape}"
        )
    if not np.isfinite(grads).all():
        raise ValueError("non-finite gradient entries")
    t = state.t + 1
    b1, b2 = state.beta1, state.beta2
    m, v, (step, update) = state.m, state.v, state.scratch
    # The docstring's expression term by term, with the same operation order.
    np.multiply(grads, 1.0 - b1, out=step)
    m *= b1
    m += step
    np.square(grads, out=step)
    step *= 1.0 - b2
    v *= b2
    v += step
    np.divide(v, 1.0 - b2**t, out=step)  # v_hat
    np.sqrt(step, out=step)
    step += state.eps
    np.divide(m, 1.0 - b1**t, out=update)  # m_hat
    update *= state.eta
    update /= step
    params -= update
    return AdamState(m, v, t, b1, b2, state.eps, state.eta, state.scratch), params


def sgd_step(params: np.ndarray, grads: np.ndarray, eta: float) -> np.ndarray:
    """Plain gradient descent in place: theta <- theta - eta * g, elementwise; returns ``params``.

    A shape mismatch raises ValueError before anything is written. A
    non-finite gradient is applied as it is, and the next loss shows it.
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape:
        raise ValueError(f"length mismatch: params {params.shape}, grads {grads.shape}")
    params -= eta * grads
    return params
