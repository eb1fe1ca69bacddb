import numpy as np
import pytest

from vaeguard.nn import VaeArchitecture, adam_init, adam_step, param_views
from vaeguard.vae import TrainConfig


def scalar_params(value=1.0):
    return np.array(value)


def test_single_step_hand_oracle():
    """One update evaluated by hand: m-hat = g, v-hat = g^2 at t=1."""
    config = TrainConfig()
    params = scalar_params(1.0)
    grads = np.array(0.1)
    state = adam_init(params)
    updated, _ = adam_step(params, grads, state, config, t=1)
    expected = 1.0 - 1e-4 * (0.1 / (0.1 + 1e-8))
    assert float(updated) == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(0.9999, abs=1e-8)


def test_zero_gradient_leaves_parameter_unchanged():
    config = TrainConfig()
    params = scalar_params(2.5)
    state = adam_init(params)
    updated, _ = adam_step(params, np.array(0.0), state, config, t=1)
    assert float(updated) == 2.5


def test_identical_gradients_evolve_identically():
    config = TrainConfig(learning_rate=0.01)
    params = np.array([1.0, 1.0])
    state = adam_init(params)
    for t in range(1, 20):
        grads = np.array([0.3, 0.3])
        params, state = adam_step(params, grads, state, config, t)
    assert params[0] == params[1]


def test_state_accumulates_moments():
    config = TrainConfig()
    params = scalar_params(0.0)
    state = adam_init(params)
    _, state = adam_step(params, np.array(0.5), state, config, t=1)
    assert float(state.m) == pytest.approx(0.05)
    assert float(state.v) == pytest.approx(0.001 * 0.25)


def test_step_index_validated():
    params = scalar_params()
    state = adam_init(params)
    with pytest.raises(ValueError):
        adam_step(params, np.array(0.1), state, TrainConfig(), t=0)


def test_quadratic_trajectory_decreases_after_warmup():
    """100 steps on f(p) = (p - 3)^2 from p = 0."""
    config = TrainConfig(learning_rate=0.05)
    params = scalar_params(0.0)
    state = adam_init(params)
    losses = []
    for t in range(1, 101):
        p = float(params)
        losses.append((p - 3.0) ** 2)
        grads = np.array(2.0 * (p - 3.0))
        params, state = adam_step(params, grads, state, config, t)
    warmup = 5
    for before, after in zip(losses[warmup:], losses[warmup + 1 :]):
        assert after < before


def test_adam_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=-0.1)


def per_key_adam_step(params, grads, state_m, state_v, config, t):
    """The update applied one array at a time, as an oracle for the flat one."""
    new_params, new_m, new_v = {}, {}, {}
    for key, p in params.items():
        g = grads[key]
        m = config.beta1 * state_m[key] + (1.0 - config.beta1) * g
        v = config.beta2 * state_v[key] + (1.0 - config.beta2) * np.square(g)
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        new_params[key] = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
        new_m[key] = m
        new_v[key] = v
    return new_params, new_m, new_v


def test_flat_step_matches_per_key_formula_bit_for_bit():
    arch = VaeArchitecture(input_dim=9, hidden_units=(7, 6, 5), latent_dim=4)
    config = TrainConfig(learning_rate=3e-3, beta1=0.85, beta2=0.99, epsilon=1e-7)
    rng = np.random.default_rng(21)
    flat = rng.normal(size=sum(v.size for v in param_views(arch).values()))
    params = param_views(arch, flat)
    assert len(params) == 18
    oracle = {key: value.copy() for key, value in params.items()}
    oracle_m = {key: np.zeros_like(value) for key, value in params.items()}
    oracle_v = {key: np.zeros_like(value) for key, value in params.items()}
    state = adam_init(flat)
    grads = np.empty_like(flat)
    for t in range(1, 51):
        grads[:] = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=flat.size)
        keyed_grads = param_views(arch, grads)
        oracle, oracle_m, oracle_v = per_key_adam_step(
            oracle, keyed_grads, oracle_m, oracle_v, config, t
        )
        updated, state = adam_step(flat, grads, state, config, t)
        assert updated is flat
    for key, value in params.items():
        np.testing.assert_array_equal(value, oracle[key])
    np.testing.assert_array_equal(state.m, np.concatenate([m.ravel() for m in oracle_m.values()]))
    np.testing.assert_array_equal(state.v, np.concatenate([v.ravel() for v in oracle_v.values()]))
