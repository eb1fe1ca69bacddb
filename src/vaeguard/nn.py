"""Fully connected VAE: forward passes, ELBO, analytic gradients, Adam.

Everything here is plain numpy (float64) so that training is exactly
reproducible under a fixed seed and gradients can be audited against
finite differences parameter by parameter.

Parameter layout (row-major weight matrices, shape (fan_in, fan_out)):
    enc{i}_w / enc{i}_b   encoder trunk, tanh after each layer
    mu_w / mu_b           linear head -> latent mean
    lv_w / lv_b           linear head -> latent log-variance
    dec{i}_w / dec{i}_b   decoder trunk, tanh after each layer
    out_w / out_b         linear output head (unbounded; inputs are
                          min-max scaled but anomalies leave [0, 1])

All of them are views into one contiguous float64 buffer, in this order
(`param_views`); gradients and the Adam moments use buffers of the same
layout, so an Adam step is a few whole-buffer array operations.

The hidden activation is tanh: smooth with bounded slope, so encoder
outputs stay finite for arbitrarily large anomalous inputs and
finite-difference checks are clean everywhere.

Training memory: `vae.train` runs every step in a preallocated
`Workspace`, one per batch row count, which every batch of that many
rows shares. Each batch is gathered into the workspace's `input`, and
each batch's noise is drawn into its workspace (`eps`) just before the
batch runs. Forward activations, backward deltas and the 1 - h**2 terms
are written into its arrays, and the weight, bias and gradient views
each layer pairs with are bound once; Adam's intermediate terms go to
two scratch buffers in `AdamState`. Every floating-point operation, its
operands' layout and its order are those of the plain expressions
(tests/test_gradients.py keeps them as a bit-for-bit oracle), so trained
weights are byte-identical to an allocating implementation. A product
uses np.dot wherever its left operand is C-contiguous or the transpose
of a C-contiguous array, as every workspace array is: np.dot makes the
same BLAS call as @ there at less cost per call. Only a caller's array
of other strides goes through np.matmul. Over several rows, a bias is
copied into every row of a workspace buffer before it is added (numpy
would copy a broadcast operand into a new buffer on every call); a
one-row workspace adds the bias viewed as a row, which needs no copy.
So a step allocates only the per-row errors it returns. A trunk layer's
bias gradient is its delta summed over rows. Both trunks' deltas share
one buffer, so each run of consecutive layers of one width (all six at
the default architecture) sums its deltas in one reduction.

Recording and replay: a pass runs its numpy calls through a recording
kept in its Workspace ("encode", "decode", "forward" and "gradients") or
in its AdamState ("step"): each call's function and operands are kept as
they are made, a number operand of a ufunc as a 0-d float64 array of its
value. The function kept for an array function such as np.dot or
np.copyto is the C function under its `__array_function__` dispatcher
(its `__wrapped__`), so a replay does not dispatch. The recording binds
the workspace's own arrays and the parameter, gradient and moment views
it holds, and the caller's operands by identity: x and eps (and
kl_weight) for the gradients, x or z for encode and decode, params,
grads and config for Adam. A Workspace or an AdamState keeps one
recording per pass. Called again with the same objects, the pass replays
it, so the same functions read and write the same arrays in the same
order, and read whatever those arrays now hold; called with any other
object, it makes the calls afresh and records them in its place. So a
pass replays whenever its caller hands it arrays the workspace owns,
such as `input`, `eps` and `mu`, and a caller's own arrays are always
read as they are. A workspace still refuses parameters or a row count
other than its own, and the finite-posterior check runs on every step.

Scoring memory: `encode` and `decode` run the training forward pass's
own encoder and decoder halves (`_encode_into`, `_decode_into`), in a
new forward-only Workspace for the batch's rows, and return copies of
its results; there is no other forward pass. A detector scores in one
recorded pass ("score", made by `vae._score_into`) that scales the raw
rows in the workspace's `input`, checks them finite
(`check_encoder_input`), runs both halves, decoding from the workspace's
`mu`, and writes each row's reconstruction error.
`vae.VaeStabilityDetector.score_vector` keeps one one-row workspace per
detector and copies each vector into its `input`, so from the second
call on the whole pass replays, with no bias copied, for as long as the
scaler's bounds are the arrays it was recorded with. A detector must
therefore not score from two threads at once. `score_samples` runs the
same pass in one workspace made for its rows.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from vaeguard.errors import DimensionMismatch, NonFiniteInput
from vaeguard.validation import as_count, is_count

if TYPE_CHECKING:
    # vae imports this module at run time
    from vaeguard.vae import TrainConfig

Params = dict[str, np.ndarray]

# The published architecture: three hidden layers of 16, a 10-d latent.
DEFAULT_HIDDEN_UNITS = (16, 16, 16)
DEFAULT_LATENT_DIM = 10


@dataclass(frozen=True)
class VaeArchitecture:
    input_dim: int
    hidden_units: tuple[int, ...] = DEFAULT_HIDDEN_UNITS
    latent_dim: int = DEFAULT_LATENT_DIM

    def __post_init__(self):
        # exact ints: `_slots` is cached by architecture, and 10.0 == 10
        for name in ("input_dim", "latent_dim"):
            object.__setattr__(self, name, as_count(getattr(self, name), 1, name, ValueError))
        if not self.hidden_units:
            raise ValueError("hidden_units must be non-empty")
        if not all(is_count(u, 1) for u in self.hidden_units):
            raise ValueError(f"hidden layer widths must be integers >= 1, got {self.hidden_units!r}")
        object.__setattr__(self, "hidden_units", tuple(int(u) for u in self.hidden_units))


@functools.lru_cache(maxsize=32)
def _slots(arch: VaeArchitecture) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(key, start, stop, shape) of every weight and bias in the flat buffer."""
    hidden = arch.hidden_units
    widths = (arch.input_dim, *hidden)
    dec_widths = (arch.latent_dim, *hidden)
    layers = [
        *((f"enc{i}", widths[i], widths[i + 1]) for i in range(len(hidden))),
        ("mu", hidden[-1], arch.latent_dim),
        ("lv", hidden[-1], arch.latent_dim),
        *((f"dec{i}", dec_widths[i], dec_widths[i + 1]) for i in range(len(hidden))),
        ("out", hidden[-1], arch.input_dim),
    ]
    slots = []
    start = 0
    for name, fan_in, fan_out in layers:
        for key, shape in ((f"{name}_w", (fan_in, fan_out)), (f"{name}_b", (fan_out,))):
            stop = start + math.prod(shape)
            slots.append((key, start, stop, shape))
            start = stop
    return tuple(slots)


def param_views(arch: VaeArchitecture, flat: np.ndarray | None = None) -> Params:
    """Keyed views into one contiguous float64 buffer (a new zeroed one
    when `flat` is None). Writing a view writes the buffer."""
    slots = _slots(arch)
    size = slots[-1][2]
    if flat is None:
        flat = np.zeros(size, dtype=np.float64)
    elif flat.shape != (size,) or flat.dtype != np.float64 or not flat.flags.c_contiguous:
        raise DimensionMismatch(
            f"parameter buffer must be contiguous float64 of shape ({size},),"
            f" got {flat.dtype} {flat.shape}"
        )
    return {key: flat[start:stop].reshape(shape) for key, start, stop, shape in slots}


def param_buffer(params: Mapping[str, np.ndarray]) -> np.ndarray:
    """The one flat buffer that the views from param_views share."""
    flat = next(iter(params.values())).base
    if flat is None or any(value.base is not flat for value in params.values()):
        raise ValueError("parameters are not views into one buffer")
    return flat


def init_params(arch: VaeArchitecture, rng: np.random.Generator) -> Params:
    """Seeded uniform init scaled by 1/sqrt(fan_in); biases start at zero.

    Draws layer by layer in parameter order; returns views into one buffer.
    """
    params = param_views(arch)
    for key, weights in params.items():
        if key.endswith("_w"):
            bound = 1.0 / np.sqrt(weights.shape[0])
            weights[...] = rng.uniform(-bound, bound, size=weights.shape)
    return params


def _as_batch(x: np.ndarray, dim: int, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(
            f"{name} must have {dim} features, got shape {np.asarray(x).shape}"
        )
    return arr, single


def _layer(params: Mapping[str, np.ndarray], name: str) -> tuple[np.ndarray, np.ndarray]:
    """(weight, bias) of layer `name`."""
    return params[f"{name}_w"], params[f"{name}_b"]


def _trunk_layers(
    arch: VaeArchitecture, params: Mapping[str, np.ndarray], prefix: str
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) of the `{prefix}{i}` tanh layers, first layer first."""
    return [_layer(params, f"{prefix}{i}") for i in range(len(arch.hidden_units))]


class _Recording:
    """The numpy calls one pass made, in order, and the caller's operands
    it made them over. Calling it makes one call and records it.

    A number operand of a ufunc is made a 0-d float64 array once, here:
    with the float64 arrays this module computes on, the ufunc would
    convert it to that same value on every call, so every result bit is
    the same."""

    __slots__ = ("operands", "calls")

    def __init__(self, operands: tuple):
        self.operands = operands
        self.calls: list[functools.partial] = []

    def __call__(self, fn, *args):
        if isinstance(fn, np.ufunc):
            args = tuple(np.array(a, np.float64) if type(a) in (float, int) else a for a in args)
        # numpy's array functions (np.dot, np.copyto) keep the C function
        # their dispatcher wraps as __wrapped__; a replay calls that directly
        fn = getattr(fn, "__wrapped__", fn)
        self.calls.append(functools.partial(fn, *args))
        return fn(*args)


def _play(owner, name: str, record, *operands) -> None:
    """Make the numpy calls `record(run, owner, *operands)` makes through
    `run`, a Recording that `owner.recordings[name]` then holds in place
    of the one before. When the one it holds was made over these same
    operand objects, its calls are replayed instead: the same functions
    over the same arrays, in order."""
    recording = owner.recordings.get(name)
    if recording is not None and all(map(operator.is_, recording.operands, operands)):
        for call in recording.calls:
            call()
        return
    recording = _Recording(operands)
    record(recording, owner, *operands)
    owner.recordings[name] = recording


def _affine(
    run: _Recording,
    work: Workspace,
    product,
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """out = product(x, weights) + bias. Over several rows the bias is
    first copied into every row of `work.bias_rows`: numpy copies a
    broadcast operand into a new buffer of the result's size on every
    call, which costs more than this copy, and the sums are the same
    either way. One row adds the bias viewed as a row, which needs no
    broadcast."""
    run(product, x, weights, out)
    if len(out) == 1:
        return run(np.add, out, bias.reshape(out.shape), out)
    rows = work.bias_rows[: out.size].reshape(out.shape)
    run(np.copyto, rows, bias)
    return run(np.add, out, rows, out)


def _product(x: np.ndarray):
    """The product for left operand `x`: np.dot when x is C-contiguous,
    np.matmul for a caller's array of any other strides."""
    return np.dot if x.flags.c_contiguous else np.matmul


def _tanh_trunk(
    run: _Recording,
    work: Workspace,
    x: np.ndarray,
    layers: list[tuple[np.ndarray, np.ndarray]],
    outs: list[np.ndarray],
) -> np.ndarray:
    """The last activation of x through tanh `layers`; layer i writes into
    outs[i]."""
    product = _product(x)  # x may be a caller's array
    for (weights, bias), out in zip(layers, outs):
        x = _affine(run, work, product, x, weights, bias, out)
        run(np.tanh, x, x)
        product = np.dot
    return x


def check_encoder_input(x: np.ndarray) -> None:
    """NonFiniteInput unless every value of the encoder input `x` is finite."""
    if not np.isfinite(x).all():
        raise NonFiniteInput("encoder input contains NaN or infinity")


def encode(
    arch: VaeArchitecture, params: Mapping[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic forward pass to the posterior (mu, logvar).

    The pass runs in a new forward-only Workspace for x's rows, and the
    returned arrays are copies, never workspace views.
    """
    batch, single = _as_batch(x, arch.input_dim, "x")
    work = Workspace(arch, params, len(batch))
    check_encoder_input(batch)
    _play(work, "encode", _encode_into, batch)
    mu, logvar = work.posterior.copy()
    if single:
        return mu[0], logvar[0]
    return mu, logvar


def decode(arch: VaeArchitecture, params: Mapping[str, np.ndarray], z: np.ndarray) -> np.ndarray:
    """Deterministic decoder pass; output head is linear. It runs in a new
    forward-only Workspace, as encode does, and the result is a copy."""
    batch, single = _as_batch(z, arch.latent_dim, "z")
    work = Workspace(arch, params, len(batch))
    _play(work, "decode", _decode_into, batch)
    recon = work.recon.copy()
    return recon[0] if single else recon


def kl_divergence(mu: np.ndarray, logvar: np.ndarray):
    """KL(N(mu, diag exp(logvar)) || N(0, I)), closed form.

    Returns a scalar for 1-D inputs, a per-row array for 2-D.
    """
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise DimensionMismatch(
            f"mu shape {mu.shape} != logvar shape {logvar.shape}"
        )
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(logvar))):
        raise NonFiniteInput("kl_divergence requires finite inputs")
    terms = 1.0 + logvar - np.square(mu) - np.exp(logvar)
    kl = -0.5 * np.sum(terms, axis=-1)
    return float(kl) if kl.ndim == 0 else kl


def reconstruction_error(x: np.ndarray, recon: np.ndarray):
    """Mean squared error across features; per-row for 2-D inputs."""
    x = np.asarray(x, dtype=np.float64)
    recon = np.asarray(recon, dtype=np.float64)
    if x.shape != recon.shape:
        raise DimensionMismatch(f"shape {x.shape} != {recon.shape}")
    # np.mean's arithmetic (a sum along the axis, then a division by its
    # length) without its per-call overhead
    err = np.add.reduce(np.square(x - recon), axis=-1) / x.shape[-1]
    return float(err) if err.ndim == 0 else err


def _row_blocks(flat: np.ndarray, rows: int, widths: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive (rows, width) views of `flat`, one per width."""
    views, start = [], 0
    for width in widths:
        views.append(flat[start : start + rows * width].reshape(rows, width))
        start += rows * width
    return views


class _Trunk:
    """One tanh trunk of a Workspace: its (weight, bias) and gradient
    pairs, bound once, and per layer the activation `h`, its 1 - h**2
    term `slope` and the loss gradient `delta`."""

    def __init__(
        self,
        arch: VaeArchitecture,
        params: Mapping[str, np.ndarray],
        grads: Params | None,
        prefix: str,
        h: list[np.ndarray],
        slope: list[np.ndarray],
        delta: list[np.ndarray],
    ):
        self.layers = _trunk_layers(arch, params, prefix)
        self.grads = None if grads is None else _trunk_layers(arch, grads, prefix)
        self.h, self.slope, self.delta = h, slope, delta

    def backward(
        self, run: _Recording, x: np.ndarray, d_input: np.ndarray | None = None
    ) -> None:
        """Write every layer's weight gradient, and leave in delta[i] the
        loss gradient at layer i's pre-activation, whose sum over rows is
        its bias gradient (see _bias_runs); given the loss gradient at the
        last activation in delta[-1] and every slope. `x` is the trunk's
        input; `d_input`, when given, receives the loss gradient with
        respect to it."""
        for i in range(len(self.layers) - 1, -1, -1):
            delta = run(np.multiply, self.delta[i], self.slope[i], self.delta[i])
            prev = self.h[i - 1] if i else x
            run(_product(prev), prev.T, delta, self.grads[i][0])
            d_prev = self.delta[i - 1] if i else d_input
            if d_prev is not None:
                run(np.dot, delta, self.layers[i][0].T, d_prev)


def _bias_runs(
    deltas: np.ndarray, rows: int, widths: tuple[int, ...], d_biases: list[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray, list[np.ndarray]]]:
    """(block, sums, copies) per run of consecutive trunk layers of one
    width, laid out in `deltas` as _row_blocks lays them out: `block`
    views the run's deltas as (count, rows, width), whose sum over rows
    goes into `sums` and from there into each of `copies`, the run's bias
    gradients."""
    runs, start = [], 0
    for width, group in itertools.groupby(widths):
        count = len(list(group))
        block = deltas[start : start + count * rows * width].reshape(count, rows, width)
        runs.append((block, np.empty((count, width)), d_biases[:count]))
        d_biases = d_biases[count:]
        start += count * rows * width
    return runs


def _write_head_gradients(
    run: _Recording, h: np.ndarray, d_out: np.ndarray, d_weights: np.ndarray, d_bias: np.ndarray
) -> None:
    """A linear head's weight and bias gradients from its input and the
    loss gradient at its output."""
    run(np.dot, h.T, d_out, d_weights)
    run(np.add.reduce, d_out, 0, None, d_bias)


class Workspace:
    """Every array one training step reads and writes, for batches of
    `rows` rows, bound to the parameter and gradient views it pairs them
    with (`grads` may be None for forward passes alone). Both trunks'
    activations share one buffer, their slopes another and their deltas a
    third, and mu and logvar a fourth, so that an elementwise term over
    all of them is one call and a run of equal-width layers sums its bias
    gradients in one (`bias_runs`). `input` and `eps` are a batch and its
    noise that a caller may write and pass as x and eps.

    `recordings` holds, per pass ("encode", "decode", "forward",
    "gradients"), the numpy calls that pass last made here and the caller
    operands it made them over; given the same objects again, the pass
    replays the calls (see "Recording and replay" above).
    """

    def __init__(
        self,
        arch: VaeArchitecture,
        params: Mapping[str, np.ndarray],
        rows: int,
        grads: Params | None = None,
    ):
        self.params, self.grads, self.rows = params, grads, rows
        self.recordings: dict[str, _Recording] = {}
        widths = arch.hidden_units
        self.hidden = np.empty(2 * rows * sum(widths))
        self.slopes = np.empty_like(self.hidden)
        self.deltas = np.empty_like(self.hidden)
        h, slope, delta = (
            _row_blocks(flat, rows, widths * 2) for flat in (self.hidden, self.slopes, self.deltas)
        )
        n = len(widths)
        self.enc = _Trunk(arch, params, grads, "enc", h[:n], slope[:n], delta[:n])
        self.dec = _Trunk(arch, params, grads, "dec", h[n:], slope[n:], delta[n:])
        self.bias_runs = None if grads is None else _bias_runs(
            self.deltas, rows, widths * 2, [bias for _, bias in self.enc.grads + self.dec.grads]
        )
        heads = ("mu", "lv", "out")
        self.heads = [_layer(params, name) for name in heads]
        self.head_grads = None if grads is None else [_layer(grads, name) for name in heads]
        latent = (rows, arch.latent_dim)
        self.posterior = np.empty((2, *latent))
        self.mu, self.logvar = self.posterior
        self.finite = np.empty(self.posterior.shape, dtype=bool)
        self.eps, self.sigma, self.z, self.var, self.d_mu, self.d_logvar, self.d_z = (
            np.empty(latent) for _ in range(7)
        )
        self.scratch = (np.empty(latent), np.empty(latent))
        # the logvar head's share of the gradient at the last encoder layer
        self.d_h_lv = np.empty((rows, widths[-1]))
        self.input, self.recon, self.diff, self.d_recon = (
            np.empty((rows, arch.input_dim)) for _ in range(4)
        )
        # every layer's bias, copied into each row in turn (see _affine)
        self.bias_rows = np.empty(rows * max(*widths, arch.latent_dim, arch.input_dim))
        # each row's reconstruction and KL terms, and their batch means
        self.row_terms = np.empty((2, rows))
        self.recon_rows, self.kl_rows = self.row_terms
        self.terms = np.empty(2)


def _check_bound(work: Workspace, params: Mapping[str, np.ndarray], rows: int) -> None:
    if work.params is not params or work.rows != rows:
        raise ValueError("workspace is bound to other parameters or another batch size")


def _encode_into(run: _Recording, work: Workspace, x: np.ndarray) -> None:
    """The encoder pass of `x` into work.posterior, mu and logvar stacked."""
    (mu_w, mu_b), (lv_w, lv_b), _ = work.heads
    h = _tanh_trunk(run, work, x, work.enc.layers, work.enc.h)
    _affine(run, work, np.dot, h, mu_w, mu_b, work.mu)
    _affine(run, work, np.dot, h, lv_w, lv_b, work.logvar)


def _decode_into(run: _Recording, work: Workspace, z: np.ndarray) -> None:
    """The decoder pass of `z` into work.recon."""
    out_w, out_b = work.heads[2]
    g = _tanh_trunk(run, work, z, work.dec.layers, work.dec.h)
    _affine(run, work, np.dot, g, out_w, out_b, work.recon)


def _sample_into(run: _Recording, work: Workspace, x: np.ndarray, eps: np.ndarray) -> None:
    """The sampled forward pass of `x` under noise `eps` into `work`."""
    _encode_into(run, work, x)
    run(np.multiply, work.logvar, 0.5, work.sigma)
    run(np.exp, work.sigma, work.sigma)
    run(np.multiply, work.sigma, eps, work.z)
    run(np.add, work.mu, work.z, work.z)
    _decode_into(run, work, work.z)


def _forward(
    arch: VaeArchitecture,
    params: Mapping[str, np.ndarray],
    x: np.ndarray,
    eps: np.ndarray,
    work: Workspace | None = None,
) -> Workspace:
    """The sampled forward pass of batch `x` under noise `eps`, written into
    `work` (a new Workspace when None), which is returned."""
    if work is None:
        work = Workspace(arch, params, len(x))
    else:
        _check_bound(work, params, len(x))
    _play(work, "forward", _sample_into, x, eps)
    return work


def _gradients_into(
    run: _Recording, work: Workspace, x: np.ndarray, eps: np.ndarray, kl_weight: float
) -> None:
    """Every gradient, each row's reconstruction error and both loss
    terms of the sampled pass `work` holds for `x` and `eps`."""
    n, input_dim = x.shape
    mu, logvar, var = work.mu, work.logvar, work.var
    a, b = work.scratch
    (mu_w, _), (lv_w, _), (out_w, _) = work.heads
    d_mu_head, d_lv_head, d_out_head = work.head_grads
    run(np.square, work.hidden, work.slopes)
    run(np.subtract, 1.0, work.slopes, work.slopes)

    # reconstruction path: d(mean-over-batch mean-over-features sq err)
    diff = run(np.subtract, work.recon, x, work.diff)
    d_recon = run(np.multiply, diff, 2.0 / (n * input_dim), work.d_recon)
    _write_head_gradients(run, work.dec.h[-1], d_recon, *d_out_head)
    run(np.dot, d_recon, out_w.T, work.dec.delta[-1])
    work.dec.backward(run, work.z, work.d_z)

    # KL path joins at the posterior heads
    run(np.exp, logvar, var)
    run(np.multiply, mu, kl_weight / n, work.d_mu)
    d_mu = run(np.add, work.d_z, work.d_mu, work.d_mu)
    d_logvar = run(np.multiply, work.d_z, eps, work.d_logvar)
    run(np.multiply, d_logvar, 0.5, d_logvar)
    run(np.multiply, d_logvar, work.sigma, d_logvar)
    run(np.subtract, var, 1.0, a)
    run(np.multiply, a, (kl_weight / n) * 0.5, a)
    run(np.add, d_logvar, a, d_logvar)

    h = work.enc.h[-1]
    _write_head_gradients(run, h, d_mu, *d_mu_head)
    _write_head_gradients(run, h, d_logvar, *d_lv_head)
    d_layer = run(np.dot, d_mu, mu_w.T, work.enc.delta[-1])
    run(np.dot, d_logvar, lv_w.T, work.d_h_lv)
    run(np.add, d_layer, work.d_h_lv, d_layer)
    work.enc.backward(run, x)  # the gradient with respect to the input is never used
    for block, sums, copies in work.bias_runs:
        run(np.add.reduce, block, 1, None, sums)
        for d_bias, total in zip(copies, sums):
            run(np.copyto, d_bias, total)

    # the same expressions as reconstruction_error and kl_divergence, and
    # their batch means
    run(np.square, diff, diff)
    recon_rows = run(np.add.reduce, diff, -1, None, work.recon_rows)
    run(np.divide, recon_rows, input_dim, recon_rows)
    kl_terms = run(np.add, logvar, 1.0, a)
    run(np.square, mu, b)
    run(np.subtract, kl_terms, b, kl_terms)
    run(np.subtract, kl_terms, var, kl_terms)
    kl_rows = run(np.add.reduce, kl_terms, -1, None, work.kl_rows)
    run(np.multiply, kl_rows, -0.5, kl_rows)
    run(np.add.reduce, work.row_terms, -1, None, work.terms)
    run(np.divide, work.terms, n, work.terms)


def elbo_gradients(
    arch: VaeArchitecture,
    params: Mapping[str, np.ndarray],
    x: np.ndarray,
    eps: np.ndarray,
    kl_weight: float = 1.0,
    out: Params | None = None,
    work: Workspace | None = None,
) -> tuple[Params, tuple[float, float, float], np.ndarray]:
    """Analytic gradients of the ELBO loss for every weight and bias.

    The noise draw is supplied by the caller so the loss is a
    deterministic function of the parameters; gradients flow through the
    reparameterized sampling step. Gradients are written into `out`,
    keyed views laid out like the parameters (new ones when None), and
    returned with the loss terms and each sample's reconstruction error
    in this stochastic pass. Intermediate terms go to `work`, a Workspace
    bound to `params` and `out` for this batch size (a new one when None).
    """
    batch, _ = _as_batch(x, arch.input_dim, "x")
    noise, _ = _as_batch(eps, arch.latent_dim, "eps")
    if work is None:
        work = Workspace(arch, params, len(batch), param_views(arch) if out is None else out)
    elif work.grads is None or (out is not None and out is not work.grads):
        raise ValueError("workspace is bound to other gradients")
    _forward(arch, params, batch, noise, work)
    if not np.isfinite(work.posterior, out=work.finite).all():
        raise NonFiniteInput("posterior mean or log-variance is not finite")
    _play(work, "gradients", _gradients_into, batch, noise, kl_weight)
    recon_term, kl_term = work.terms.tolist()
    # the errors are returned, so they are new, never a workspace view
    errors = work.recon_rows.copy()
    return work.grads, (recon_term + kl_weight * kl_term, recon_term, kl_term), errors


# -- Adam -------------------------------------------------------------------


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    # two buffers like m and v for adam_step's intermediate terms
    scratch: tuple[np.ndarray, np.ndarray]
    # the two bias corrections 1 - beta**t of the step being taken, and
    # the recording of adam_step's calls (see Workspace.recordings)
    corrections: np.ndarray = field(default_factory=lambda: np.empty(2), repr=False)
    recordings: dict[str, _Recording] = field(default_factory=dict, repr=False)


def adam_init(params: np.ndarray) -> AdamState:
    return AdamState(
        m=np.zeros_like(params),
        v=np.zeros_like(params),
        scratch=(np.empty_like(params), np.empty_like(params)),
    )


def _adam_into(
    run: _Recording, state: AdamState, params: np.ndarray, grads: np.ndarray, config: TrainConfig
) -> None:
    m, v = state.m, state.v
    a, b = state.scratch
    # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g**2
    run(np.multiply, m, config.beta1, m)
    run(np.multiply, grads, 1.0 - config.beta1, a)
    run(np.add, m, a, m)
    run(np.multiply, v, config.beta2, v)
    run(np.square, grads, a)
    run(np.multiply, a, 1.0 - config.beta2, a)
    run(np.add, v, a, v)
    # params -= learning_rate * m_hat / (sqrt(v_hat) + epsilon)
    m_hat = run(np.divide, m, state.corrections[0, ...], a)
    v_hat = run(np.divide, v, state.corrections[1, ...], b)
    step = run(np.multiply, m_hat, config.learning_rate, a)
    run(np.sqrt, v_hat, b)
    run(np.add, b, config.epsilon, b)
    run(np.divide, step, b, a)
    run(np.subtract, params, step, params)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    config: TrainConfig,
    t: int,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update over flat arrays; t counts from 1.

    Reads `learning_rate`, `beta1`, `beta2` and `epsilon` from `config`.

    Updates `params`, `state.m` and `state.v` in place and returns them;
    intermediate terms go to `state.scratch`, so a step allocates nothing.
    The step's calls are recorded in `state` and replayed while it is
    given the same `params`, `grads` and `config` objects.
    """
    if t < 1:
        raise ValueError("step index t must be >= 1")
    corrections = state.corrections
    corrections[0] = 1.0 - config.beta1**t
    corrections[1] = 1.0 - config.beta2**t
    _play(state, "step", _adam_into, params, grads, config)
    return params, state
