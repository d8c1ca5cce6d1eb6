"""Adam with linear warmup and per-step exponential learning-rate decay.

The moments live in flat buffers in the parameters' dtype, so one step runs
each of Adam's operations once over all tensors instead of once per tensor.
Every element sees the operations of the textbook per-tensor update in the
same order and dtype, so the flat update is bitwise that update, and bitwise
deterministic.

The parameters stay the caller's own arrays and are updated in place, one
tensor at a time. A gradient written straight into its view of state.grads
(through a ufunc's or matmul's out=) is not copied; training and fine-tuning
both write their gradients there.
"""

from __future__ import annotations

import math

import numpy as np


def scheduled_lr(step: int, base_lr: float, warmup_steps: int, decay_rate: float) -> float:
    """Linear ramp to base_lr at step == warmup_steps, then base_lr * decay^(step - warmup).

    Continuous at the boundary and non-increasing afterwards.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if warmup_steps > 0 and step <= warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr * decay_rate ** (step - warmup_steps)


def _views(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Named views into flat, one per shape, laid out in dict order."""
    views, at = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[at : at + size].reshape(shape)
        at += size
    return views


class AdamState:
    """Adam's step count and moments for one set of named tensors.

    m and v are one flat buffer each; state.m[name] and state.v[name] are
    views into them, in the order of the moments given. A flat gradient
    buffer (state.grads holds its named views) and a scratch buffer of the
    same size hold each step's temporaries; adam_step overwrites the
    gradient buffer, so a caller writes every gradient anew before each
    step. All share the moments' dtype, which must be one.
    """

    def __init__(self, m: dict[str, np.ndarray], v: dict[str, np.ndarray], step: int = 0):
        shapes = {name: np.shape(a) for name, a in m.items()}
        if {name: np.shape(a) for name, a in v.items()} != shapes:
            raise ValueError("Adam's m and v must hold the same names and shapes")
        dtypes = {np.asarray(a).dtype for a in (*m.values(), *v.values())}
        if len(dtypes) > 1:
            names = sorted(map(str, dtypes))
            raise ValueError(f"Adam's tensors must share one dtype, got {names}")
        dtype = dtypes.pop() if dtypes else np.float64
        size = sum(math.prod(shape) for shape in shapes.values())
        self._m, self._v, self._grad, self._scratch = (np.zeros(size, dtype) for _ in range(4))
        self.m, self.v = _views(self._m, shapes), _views(self._v, shapes)
        for name in shapes:
            self.m[name][...] = m[name]
            self.v[name][...] = v[name]
        self.grads = _views(self._grad, shapes)
        self._updates = _views(self._scratch, shapes)
        self.step = step


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    zeros = {k: np.zeros_like(p) for k, p in params.items()}
    return AdamState(m=zeros, v=zeros)


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.98,
    eps: float = 1e-9,
) -> None:
    """One Adam update of the caller's params, in place.

    params must hold the names the state was made for. Each gradient is cast
    to the moments' dtype as it is copied into the gradient buffer, unless it
    is its own view of that buffer (state.grads[name]); the hyperparameters
    are Python floats, which numpy applies in that dtype.
    """
    if params.keys() != state.m.keys():
        raise KeyError(f"params {list(params)} do not match Adam's {list(state.m)}")
    lr, beta1, beta2, eps = float(lr), float(beta1), float(beta2), float(eps)
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, g in state.grads.items():
        if grads[name] is not g:
            g[...] = grads[name]
    g, update, m, v = state._grad, state._scratch, state._m, state._v
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=update)
    m += update
    v *= beta2
    np.multiply(g, g, out=update)
    update *= 1.0 - beta2
    v += update
    # update = lr * (m / bc1) / (sqrt(v / bc2) + eps); g is free to be the divisor
    np.divide(m, bc1, out=update)
    update *= lr
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += eps
    update /= g
    for name, p in params.items():
        p -= state._updates[name]
