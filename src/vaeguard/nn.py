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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from vaeguard.errors import DimensionMismatch, NonFiniteInput

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
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if not self.hidden_units:
            raise ValueError("hidden_units must be non-empty")
        object.__setattr__(self, "hidden_units", tuple(int(u) for u in self.hidden_units))
        if min(self.hidden_units) < 1:
            raise ValueError(f"hidden layer widths must be >= 1, got {self.hidden_units}")


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


def _tanh_trunk(
    arch: VaeArchitecture, params: Mapping[str, np.ndarray], prefix: str, x: np.ndarray
) -> list[np.ndarray]:
    """Activations of the `{prefix}{i}` tanh layers, first layer first."""
    activations = []
    for i in range(len(arch.hidden_units)):
        x = np.tanh(x @ params[f"{prefix}{i}_w"] + params[f"{prefix}{i}_b"])
        activations.append(x)
    return activations


def encode(
    arch: VaeArchitecture, params: Mapping[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic forward pass to the posterior (mu, logvar)."""
    batch, single = _as_batch(x, arch.input_dim, "x")
    if not np.all(np.isfinite(batch)):
        raise NonFiniteInput("encoder input contains NaN or infinity")
    h = _tanh_trunk(arch, params, "enc", batch)[-1]
    mu = h @ params["mu_w"] + params["mu_b"]
    logvar = h @ params["lv_w"] + params["lv_b"]
    if single:
        return mu[0], logvar[0]
    return mu, logvar


def decode(
    arch: VaeArchitecture, params: Mapping[str, np.ndarray], z: np.ndarray
) -> np.ndarray:
    """Deterministic decoder pass; output head is linear."""
    batch, single = _as_batch(z, arch.latent_dim, "z")
    g = _tanh_trunk(arch, params, "dec", batch)[-1]
    recon = g @ params["out_w"] + params["out_b"]
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
    err = np.mean(np.square(x - recon), axis=-1)
    return float(err) if err.ndim == 0 else err


@dataclass
class _ForwardCache:
    x: np.ndarray
    enc_h: list[np.ndarray]
    mu: np.ndarray
    logvar: np.ndarray
    sigma: np.ndarray
    eps: np.ndarray
    z: np.ndarray
    dec_g: list[np.ndarray]
    recon: np.ndarray


def _forward(
    arch: VaeArchitecture, params: Mapping[str, np.ndarray], x: np.ndarray, eps: np.ndarray
) -> _ForwardCache:
    enc_h = _tanh_trunk(arch, params, "enc", x)
    mu = enc_h[-1] @ params["mu_w"] + params["mu_b"]
    logvar = enc_h[-1] @ params["lv_w"] + params["lv_b"]
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * eps
    dec_g = _tanh_trunk(arch, params, "dec", z)
    recon = dec_g[-1] @ params["out_w"] + params["out_b"]
    return _ForwardCache(x, enc_h, mu, logvar, sigma, eps, z, dec_g, recon)


def elbo_terms(
    arch: VaeArchitecture,
    params: Mapping[str, np.ndarray],
    x: np.ndarray,
    eps: np.ndarray,
    kl_weight: float = 1.0,
) -> tuple[float, float, float]:
    """Loss terms for a fixed noise draw: (loss, recon_term, kl_term).

    loss = recon + kl_weight * kl, averaged over the batch. Minimizing it
    maximizes the evidence lower bound with MSE standing in for the
    negative reconstruction log-likelihood.
    """
    batch, _ = _as_batch(x, arch.input_dim, "x")
    noise, _ = _as_batch(eps, arch.latent_dim, "eps")
    cache = _forward(arch, params, batch, noise)
    recon_term = float(np.mean(reconstruction_error(batch, cache.recon)))
    kl_term = float(np.mean(kl_divergence(cache.mu, cache.logvar)))
    return recon_term + kl_weight * kl_term, recon_term, kl_term


def elbo_gradients(
    arch: VaeArchitecture,
    params: Mapping[str, np.ndarray],
    x: np.ndarray,
    eps: np.ndarray,
    kl_weight: float = 1.0,
    out: Params | None = None,
) -> tuple[Params, tuple[float, float, float], np.ndarray]:
    """Analytic gradients of the ELBO loss for every weight and bias.

    The noise draw is supplied by the caller so the loss is a
    deterministic function of the parameters; gradients flow through the
    reparameterized sampling step. Gradients are written into `out`,
    keyed views laid out like the parameters (new ones when None), and
    returned with the loss terms and each sample's reconstruction error
    in this stochastic pass.
    """
    batch, _ = _as_batch(x, arch.input_dim, "x")
    noise, _ = _as_batch(eps, arch.latent_dim, "eps")
    n, input_dim = batch.shape
    cache = _forward(arch, params, batch, noise)
    if not (np.isfinite(cache.mu).all() and np.isfinite(cache.logvar).all()):
        raise NonFiniteInput("posterior mean or log-variance is not finite")
    grads = param_views(arch) if out is None else out
    n_hidden = len(arch.hidden_units)

    def write(name: str, prev: np.ndarray, d_pre: np.ndarray) -> None:
        np.matmul(prev.T, d_pre, out=grads[f"{name}_w"])
        np.add.reduce(d_pre, axis=0, out=grads[f"{name}_b"])

    # reconstruction path: d(mean-over-batch mean-over-features sq err)
    diff = cache.recon - batch
    d_recon = (2.0 / (n * input_dim)) * diff
    write("out", cache.dec_g[-1], d_recon)
    d_layer = d_recon @ params["out_w"].T
    for i in range(n_hidden - 1, -1, -1):
        d_pre = d_layer * (1.0 - np.square(cache.dec_g[i]))
        write(f"dec{i}", cache.z if i == 0 else cache.dec_g[i - 1], d_pre)
        d_layer = d_pre @ params[f"dec{i}_w"].T
    d_z = d_layer

    # KL path joins at the posterior heads
    var = np.exp(cache.logvar)
    d_mu = d_z + (kl_weight / n) * cache.mu
    d_logvar = d_z * cache.eps * 0.5 * cache.sigma + (kl_weight / n) * 0.5 * (var - 1.0)

    write("mu", cache.enc_h[-1], d_mu)
    write("lv", cache.enc_h[-1], d_logvar)
    d_layer = d_mu @ params["mu_w"].T + d_logvar @ params["lv_w"].T
    for i in range(n_hidden - 1, -1, -1):
        d_pre = d_layer * (1.0 - np.square(cache.enc_h[i]))
        write(f"enc{i}", batch if i == 0 else cache.enc_h[i - 1], d_pre)
        if i:  # the gradient with respect to the input itself is never used
            d_layer = d_pre @ params[f"enc{i}_w"].T

    # the same expressions as reconstruction_error and kl_divergence
    recon_rows = np.add.reduce(np.square(diff), axis=-1) / input_dim
    recon_term = float(np.add.reduce(recon_rows) / n)
    kl_rows = -0.5 * np.add.reduce(1.0 + cache.logvar - np.square(cache.mu) - var, axis=-1)
    kl_term = float(np.add.reduce(kl_rows) / n)
    loss = recon_term + kl_weight * kl_term
    return grads, (loss, recon_term, kl_term), recon_rows


# -- Adam -------------------------------------------------------------------


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray


def adam_init(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    config: TrainConfig,
    t: int,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update over flat arrays; t counts from 1.

    Reads `learning_rate`, `beta1`, `beta2` and `epsilon` from `config`.

    Updates `params`, `state.m` and `state.v` in place and returns them.
    """
    if t < 1:
        raise ValueError("step index t must be >= 1")
    m, v = state.m, state.v
    m *= config.beta1
    m += (1.0 - config.beta1) * grads
    v *= config.beta2
    v += (1.0 - config.beta2) * np.square(grads)
    m_hat = m / (1.0 - config.beta1**t)
    v_hat = v / (1.0 - config.beta2**t)
    params -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return params, state
