"""Parameter update rules: Adam (primary) and plain SGD.

One optimizer state spans the full flat parameter vector, so quantum angles
and classical weights are updated jointly by the same rule. Both rules act
elementwise, so an (S, P) stack of parameter vectors takes one step for all
S vectors, each row as it would alone.

Both steps write into ``params`` in place and return it. Adam uses Kingma &
Ba's defaults, :data:`BETA1`, :data:`BETA2` and :data:`EPS`, which nothing
overrides; only its learning rate is set. The moments m and v follow the
textbook recursion (Kingma & Ba, arXiv:1412.6980, Algorithm 1) bit for bit;
theta follows the efficient form the paper gives at the end of its section 2,
which folds both bias corrections into two scalars, so a step makes two fewer
passes over the parameters. :func:`init_adam` builds one :class:`AdamState`,
its moments and one scratch array of the parameters' shape, and every
:func:`adam_step` advances that same state in place, so a training loop's
Adam steps allocate nothing of that size. A step checks its arguments before
it writes anything: a step Adam refuses leaves the parameters and the state
as they were.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Adam's moments after ``t`` steps; :func:`adam_step` advances ``m``, ``v`` and ``t`` in place.

    ``scratch`` is one array of the moments' shape for the step's
    intermediate terms.
    """

    m: np.ndarray
    v: np.ndarray
    t: int
    eta: float = 0.001
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty(np.shape(self.m))


def init_adam(n_params: int | tuple[int, ...], eta: float = 0.001) -> AdamState:
    """Fresh moment estimates (all zero) for parameters of length (or shape) ``n_params``."""
    return AdamState(m=np.zeros(n_params), v=np.zeros(n_params), t=0, eta=eta)


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray
) -> tuple[AdamState, np.ndarray]:
    """One Adam update of ``params`` and ``state`` in place; returns both.

    With t incremented first, m <- b1*m + (1-b1)*g and v <- b2*v + (1-b2)*g^2,
    as in the textbook. Then theta <- theta - alpha_t * (m / (sqrt(v) + eps_hat))
    with the scalars alpha_t = eta*sqrt(1-b2^t)/(1-b1^t) and
    eps_hat = eps*sqrt(1-b2^t), all elementwise. This is the textbook update
    eta * m_hat / (sqrt(v_hat) + eps) in another operation order, so theta
    agrees with it to a few ulp of the update, not bit for bit. A shape
    mismatch or a non-finite gradient raises ValueError before anything is
    written.
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
    state.t += 1
    m, v, step = state.m, state.v, state.scratch
    np.multiply(grads, 1.0 - BETA1, out=step)
    m *= BETA1
    m += step
    np.square(grads, out=step)
    step *= 1.0 - BETA2
    v *= BETA2
    v += step
    root = math.sqrt(1.0 - BETA2**state.t)
    np.sqrt(v, out=step)
    step += EPS * root  # eps_hat
    np.divide(m, step, out=step)
    step *= state.eta * root / (1.0 - BETA1**state.t)  # alpha_t
    params -= step
    return state, params


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
