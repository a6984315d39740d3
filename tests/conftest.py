"""Shared test helpers: finite-difference gradient checking and oracles."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from risknet.cli import main, write_tokens

# `HYPOTHESIS_PROFILE=ci` makes every property test draw the same examples on
# every run and drops the per-example deadline, which shared runners miss
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# JSON integers past the int-to-str digit limit (4300 by default) raise on
# interpreters that have one; on others they parse
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no int-to-str digit limit")


def fit_on_tiny_corpus(cmd: str, tmp_path: Path) -> Path:
    """Run `risknet train` or `risknet ablate` for one epoch at a tiny shape
    on eight labeled two-token posts; returns the run's output directory."""
    dataset = tmp_path / "tokens.jsonl"
    write_tokens([{"post_id": f"p{i}", "user_id": "u", "label": i % 4, "tokens": ["a", "b"]}
                  for i in range(8)], dataset)
    out = tmp_path / cmd
    assert main([cmd, "--dataset", str(dataset), "--out", str(out), "--epochs", "1",
                 "--embed-dim", "4", "--lstm-units", "4", "--max-len", "8"]) == 0
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function in its tanh form, overflow-safe for large |x|: the
    oracle of the LSTM kernels' sigmoid gates."""
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def dense(grad) -> np.ndarray:
    """A `RowGrad` as the full array it stands for: zeros outside its rows."""
    out = np.zeros(grad.shape, dtype=grad.values.dtype)
    out[grad.rows] = grad.values
    return out


def fd_check(loss_fn, arr: np.ndarray, analytic: np.ndarray, rng: np.random.Generator,
             samples: int = 8, h: float = 1e-5, tol: float = 1e-4, name: str = "") -> float:
    """Central finite differences on sampled entries of one parameter array.

    loss_fn re-evaluates the scalar loss with the (mutated) array in place.
    Returns the worst relative error seen; asserts every error < tol.
    """
    assert arr.shape == analytic.shape, f"{name}: grad shape {analytic.shape} != {arr.shape}"
    count = min(samples, arr.size)
    flat = rng.choice(arr.size, size=count, replace=False)
    worst = 0.0
    for fi in flat:
        ix = np.unravel_index(fi, arr.shape)
        old = arr[ix]
        arr[ix] = old + h
        lp = loss_fn()
        arr[ix] = old - h
        lm = loss_fn()
        arr[ix] = old
        fd = (lp - lm) / (2.0 * h)
        an = analytic[ix]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        assert rel < tol, f"{name}[{ix}]: analytic {an!r} vs finite-diff {fd!r} (rel {rel:.3e})"
        worst = max(worst, rel)
    return worst


def projection_loss(rng: np.random.Generator, shape) -> tuple[np.ndarray, object]:
    """Fixed random projection R and loss(out) = sum(out * R).

    Checking d loss / d x against backward(R) exercises the full Jacobian,
    not just the all-ones direction.
    """
    R = rng.normal(size=shape)
    return R, lambda out: float(np.sum(out * R))


def dlogits_through_softmax(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """The gradient at the logits of a softmax head, from the gradient at its
    probabilities, through the softmax Jacobian row by row.

    The dense head's backward pass takes the gradient at the logits; this
    turns a projection loss on the probabilities into one.
    """
    return probs * (dprobs - (probs * dprobs).sum(axis=-1, keepdims=True))
