"""Analytic gradients audited against central finite differences.

The finite-difference oracle below perturbs every parameter element
independently and never touches the backprop code path.
"""

import numpy as np
import pytest

from conftest import elbo_terms, finite_difference_gradients, max_relative_error
from vaeguard import nn
from vaeguard.errors import NonFiniteInput
from vaeguard.nn import (
    VaeArchitecture,
    elbo_gradients,
    init_params,
    param_buffer,
    param_views,
    reconstruction_error,
)


@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_finite_differences(seed):
    arch = VaeArchitecture(input_dim=6, hidden_units=(5, 4), latent_dim=2)
    rng = np.random.default_rng(seed)
    params = init_params(arch, rng)
    x = rng.uniform(-0.5, 1.5, arch.input_dim)
    eps = rng.standard_normal(arch.latent_dim)
    analytic, _, _ = elbo_gradients(arch, params, x, eps, kl_weight=1.0)
    numeric = finite_difference_gradients(arch, params, x, eps, kl_weight=1.0)
    assert set(analytic) == set(params)
    assert max_relative_error(analytic, numeric) <= 1e-4


def test_gradients_cover_reparameterization_path():
    """With the reconstruction term switched off, gradients into the
    encoder still flow from the KL term; with kl off, encoder gradients
    flow through the sampled z."""
    arch = VaeArchitecture(input_dim=3, hidden_units=(4,), latent_dim=2)
    rng = np.random.default_rng(42)
    params = init_params(arch, rng)
    x = rng.uniform(0, 1, 3)
    eps = rng.standard_normal(2)

    recon_only, _, _ = elbo_gradients(arch, params, x, eps, kl_weight=0.0)
    assert np.abs(recon_only["enc0_w"]).max() > 0  # via z = mu + sigma*eps
    numeric = finite_difference_gradients(arch, params, x, eps, kl_weight=0.0)
    assert max_relative_error(recon_only, numeric) <= 1e-4


def test_zero_model_zero_input_gradients_vanish():
    arch = VaeArchitecture(input_dim=4, hidden_units=(3,), latent_dim=2)
    params = param_views(arch)
    grads, (loss, recon, kl), _ = elbo_gradients(
        arch, params, np.zeros(4), np.ones(2), kl_weight=1.0
    )
    assert loss == recon == kl == 0.0
    for value in grads.values():
        np.testing.assert_array_equal(value, np.zeros_like(value))


def test_zero_model_bias_path_matches_hand_computation():
    """Zero weights, nonzero input: only the output bias sees gradient,
    equal to -2x/D for a single sample."""
    arch = VaeArchitecture(input_dim=4, hidden_units=(3,), latent_dim=2)
    params = param_views(arch)
    x = np.array([1.0, -2.0, 0.5, 4.0])
    grads, _, _ = elbo_gradients(arch, params, x, np.ones(2), kl_weight=1.0)
    np.testing.assert_allclose(grads["out_b"], -2.0 * x / 4.0, atol=1e-15)
    for key, value in grads.items():
        if key != "out_b":
            np.testing.assert_array_equal(value, np.zeros_like(value))


def test_recon_path_gradient_is_linear_in_residual():
    """Doubling the residual doubles the reconstruction-path gradient
    into the decoder output layer."""
    arch = VaeArchitecture(input_dim=4, hidden_units=(3,), latent_dim=2)
    params = param_views(arch)
    x = np.array([0.5, 1.0, -1.5, 2.0])
    eps = np.zeros(2)
    single, _, _ = elbo_gradients(arch, params, x, eps, kl_weight=0.0)
    double, _, _ = elbo_gradients(arch, params, 2.0 * x, eps, kl_weight=0.0)
    np.testing.assert_allclose(double["out_b"], 2.0 * single["out_b"], rtol=1e-12)


def test_batch_gradients_average_per_sample_gradients():
    arch = VaeArchitecture(input_dim=3, hidden_units=(4,), latent_dim=2)
    rng = np.random.default_rng(8)
    params = init_params(arch, rng)
    xs = rng.uniform(0, 1, size=(2, 3))
    eps = rng.standard_normal((2, 2))
    batch, _, _ = elbo_gradients(arch, params, xs, eps, kl_weight=1.0)
    first, _, _ = elbo_gradients(arch, params, xs[0], eps[0], kl_weight=1.0)
    second, _, _ = elbo_gradients(arch, params, xs[1], eps[1], kl_weight=1.0)
    for key in batch:
        np.testing.assert_allclose(
            batch[key], 0.5 * (first[key] + second[key]), rtol=1e-10, atol=1e-12
        )


def test_gradients_written_into_out_buffer_match_a_fresh_call():
    arch = VaeArchitecture(input_dim=7, hidden_units=(6, 5, 4), latent_dim=3)
    rng = np.random.default_rng(12)
    params = init_params(arch, rng)
    xs = rng.uniform(-0.5, 1.5, size=(9, 7))
    eps = rng.standard_normal((9, 3))
    fresh, fresh_terms, _ = elbo_gradients(arch, params, xs, eps, kl_weight=0.7)
    out = np.full_like(param_buffer(params), np.nan)
    grads, terms, _ = elbo_gradients(
        arch, params, xs, eps, kl_weight=0.7, out=param_views(arch, out)
    )
    assert terms == fresh_terms
    assert list(grads) == list(params)
    for key in params:
        assert grads[key].base is out
        np.testing.assert_array_equal(grads[key], fresh[key])
    np.testing.assert_array_equal(out, param_buffer(fresh))


def test_gradients_fill_given_views_without_building_new_ones(monkeypatch):
    arch = VaeArchitecture(input_dim=7, hidden_units=(6, 5, 4), latent_dim=3)
    rng = np.random.default_rng(14)
    params = init_params(arch, rng)
    xs = rng.uniform(0, 1, size=(5, 7))
    eps = rng.standard_normal((5, 3))
    fresh, _, _ = elbo_gradients(arch, params, xs, eps)
    views = param_views(arch)
    calls = []
    real_param_views = nn.param_views
    monkeypatch.setattr(nn, "param_views", lambda *a: calls.append(a) or real_param_views(*a))
    for _ in range(3):
        grads, _, _ = elbo_gradients(arch, params, xs, eps, out=views)
    assert calls == []
    assert grads is views
    for key in params:
        np.testing.assert_array_equal(views[key], fresh[key])


def test_gradient_sample_errors_are_those_of_the_training_pass():
    arch = VaeArchitecture(input_dim=5, hidden_units=(4, 3), latent_dim=2)
    rng = np.random.default_rng(15)
    params = init_params(arch, rng)
    xs = rng.uniform(0, 1, size=(6, 5))
    eps = rng.standard_normal((6, 2))
    _, (_, recon_term, _), errors = elbo_gradients(arch, params, xs, eps)
    sampled = nn._forward(arch, params, xs, eps).recon
    np.testing.assert_array_equal(errors, reconstruction_error(xs, sampled))
    assert recon_term == float(np.mean(errors))


def test_gradient_loss_terms_equal_elbo_terms():
    arch = VaeArchitecture(input_dim=5, hidden_units=(4,), latent_dim=2)
    rng = np.random.default_rng(13)
    params = init_params(arch, rng)
    xs = rng.uniform(0, 1, size=(6, 5))
    eps = rng.standard_normal((6, 2))
    for kl_weight in (0.0, 0.5, 1.0):
        _, terms, _ = elbo_gradients(arch, params, xs, eps, kl_weight)
        assert terms == elbo_terms(arch, params, xs, eps, kl_weight)


@pytest.mark.parametrize("key", ["mu_b", "lv_b"])
def test_non_finite_posterior_raises(key):
    arch = VaeArchitecture(input_dim=3, hidden_units=(4,), latent_dim=2)
    params = init_params(arch, np.random.default_rng(1))
    params[key][0] = np.inf
    with pytest.raises(NonFiniteInput):
        elbo_gradients(arch, params, np.ones(3), np.ones(2))


def expression_gradients(arch, params, x, eps, kl_weight):
    """elbo_gradients written as fresh-array expressions with @, each
    operation in the order elbo_gradients performs it: its bit-for-bit
    oracle."""
    n, input_dim = x.shape
    hidden = range(len(arch.hidden_units))
    enc_h, h = [], x
    for i in hidden:
        h = np.tanh(h @ params[f"enc{i}_w"] + params[f"enc{i}_b"])
        enc_h.append(h)
    mu = h @ params["mu_w"] + params["mu_b"]
    logvar = h @ params["lv_w"] + params["lv_b"]
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * eps
    dec_g, g = [], z
    for i in hidden:
        g = np.tanh(g @ params[f"dec{i}_w"] + params[f"dec{i}_b"])
        dec_g.append(g)
    recon = g @ params["out_w"] + params["out_b"]
    grads = {}

    def write(name, prev, d_pre):
        grads[f"{name}_w"] = prev.T @ d_pre
        grads[f"{name}_b"] = np.add.reduce(d_pre, axis=0)

    diff = recon - x
    d_recon = (2.0 / (n * input_dim)) * diff
    write("out", dec_g[-1], d_recon)
    d_layer = d_recon @ params["out_w"].T
    for i in reversed(hidden):
        d_pre = d_layer * (1.0 - np.square(dec_g[i]))
        write(f"dec{i}", dec_g[i - 1] if i else z, d_pre)
        d_layer = d_pre @ params[f"dec{i}_w"].T
    var = np.exp(logvar)
    d_mu = d_layer + (kl_weight / n) * mu
    d_logvar = d_layer * eps * 0.5 * sigma + (kl_weight / n) * 0.5 * (var - 1.0)
    write("mu", enc_h[-1], d_mu)
    write("lv", enc_h[-1], d_logvar)
    d_layer = d_mu @ params["mu_w"].T + d_logvar @ params["lv_w"].T
    for i in reversed(hidden):
        d_pre = d_layer * (1.0 - np.square(enc_h[i]))
        write(f"enc{i}", enc_h[i - 1] if i else x, d_pre)
        d_layer = d_pre @ params[f"enc{i}_w"].T
    recon_rows = np.add.reduce(np.square(diff), axis=-1) / input_dim
    kl_rows = -0.5 * np.add.reduce(1.0 + logvar - np.square(mu) - var, axis=-1)
    recon_term = float(np.add.reduce(recon_rows) / n)
    kl_term = float(np.add.reduce(kl_rows) / n)
    return grads, (recon_term + kl_weight * kl_term, recon_term, kl_term), recon_rows


@pytest.mark.parametrize("rows", [1, 6, 16])
@pytest.mark.parametrize(
    ("input_dim", "hidden_units", "latent_dim"),
    [
        (80, (16, 16, 16), 10),
        (7, (6, 5, 4), 3),
        (3, (1,), 1),
        # trunk widths 5 5 3 5 5 3: bias runs of 2, 1, 2 and 1 layers
        (9, (5, 5, 3), 2),
        # widths 4 4 4 4: one run across both trunks
        (6, (4, 4), 4),
    ],
)
def test_workspace_gradients_equal_the_expression_form_bit_for_bit(
    input_dim, hidden_units, latent_dim, rows
):
    arch = VaeArchitecture(input_dim, hidden_units, latent_dim)
    rng = np.random.default_rng(rows)
    params = init_params(arch, rng)
    grads = param_views(arch)
    work = nn.Workspace(arch, params, rows, grads)
    # one workspace for every call; the last input is column-strided
    inputs = [rng.uniform(-0.5, 1.5, size=(rows, input_dim)) for _ in range(3)]
    inputs.append(rng.uniform(-0.5, 1.5, size=(rows, 2 * input_dim))[:, ::2])
    for x, kl_weight in zip(inputs, (1.0, 0.0, 0.7, 1.0)):
        eps = rng.standard_normal((rows, latent_dim))
        expected, expected_terms, expected_errors = expression_gradients(
            arch, params, x, eps, kl_weight
        )
        got, terms, errors = elbo_gradients(arch, params, x, eps, kl_weight, grads, work)
        assert terms == expected_terms
        assert errors.tobytes() == expected_errors.tobytes()
        assert {key: got[key].tobytes() for key in params} == {
            key: expected[key].tobytes() for key in params
        }


def test_a_replayed_pass_reads_what_the_workspace_input_and_noise_hold():
    arch = VaeArchitecture(input_dim=7, hidden_units=(6, 5), latent_dim=3)
    rng = np.random.default_rng(18)
    params = init_params(arch, rng)
    grads = param_views(arch)
    work = nn.Workspace(arch, params, 6, grads)
    kl_weight, recordings = 0.7, []
    # the first call records; the two after it replay over new fills
    for _ in range(3):
        work.input[...] = rng.uniform(-0.5, 1.5, size=work.input.shape)
        rng.standard_normal(out=work.eps)
        expected, expected_terms, expected_errors = expression_gradients(
            arch, params, work.input.copy(), work.eps.copy(), kl_weight
        )
        got, terms, errors = elbo_gradients(
            arch, params, work.input, work.eps, kl_weight, grads, work
        )
        recordings.append(work.recordings["gradients"])
        assert terms == expected_terms
        assert errors.tobytes() == expected_errors.tobytes()
        assert {key: got[key].tobytes() for key in params} == {
            key: expected[key].tobytes() for key in params
        }
    assert recordings[0] is recordings[1] is recordings[2]


def test_sample_errors_outlive_the_next_step_on_the_same_workspace():
    arch = VaeArchitecture(input_dim=5, hidden_units=(4, 3), latent_dim=2)
    rng = np.random.default_rng(16)
    params = init_params(arch, rng)
    work = nn.Workspace(arch, params, 6, param_views(arch))
    xs = rng.uniform(0, 1, size=(2, 6, 5))
    eps = rng.standard_normal((6, 2))
    _, _, first = elbo_gradients(arch, params, xs[0], eps, work=work)
    kept = first.copy()
    _, _, second = elbo_gradients(arch, params, xs[1], eps, work=work)
    np.testing.assert_array_equal(first, kept)
    assert not np.array_equal(first, second)


def test_workspace_bound_elsewhere_is_refused():
    arch = VaeArchitecture(input_dim=5, hidden_units=(4,), latent_dim=2)
    rng = np.random.default_rng(17)
    params = init_params(arch, rng)
    xs = rng.uniform(0, 1, size=(6, 5))
    eps = rng.standard_normal((6, 2))
    work = nn.Workspace(arch, params, 6, param_views(arch))
    for call in (
        lambda: elbo_gradients(arch, init_params(arch, rng), xs, eps, work=work),
        lambda: elbo_gradients(arch, params, xs[:5], eps[:5], work=work),
        lambda: elbo_gradients(arch, params, xs, eps, out=param_views(arch), work=work),
        lambda: elbo_gradients(arch, params, xs, eps, work=nn.Workspace(arch, params, 6)),
    ):
        with pytest.raises(ValueError, match="workspace is bound"):
            call()
