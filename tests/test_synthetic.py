import numpy as np
import pytest

from scalefit.models import M1Params
from scalefit.synthetic import (
    SphereTaskSpec,
    generate_from_model,
    generate_sphere_curve,
    misclassification_rate,
    sample_sphere_dataset,
    train_logistic,
)
from scalefit.fitting import fit_m1


def unit(d, seed=0):
    g = np.random.default_rng(seed).standard_normal(d)
    return g / np.linalg.norm(g)


class TestSampleSphereDataset:
    def test_unit_norm(self):
        X, _ = sample_sphere_dataset(8, 500, unit(8), 0.1, np.random.default_rng(0))
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)

    def test_flip_rate_concentrates(self):
        d, n, delta = 5, 100_000, 0.2
        w = unit(d)
        X, y = sample_sphere_dataset(d, n, w, delta, np.random.default_rng(1))
        flipped = np.mean(y != np.sign(X @ w))
        band = 3 * np.sqrt(delta * (1 - delta) / n)
        assert abs(flipped - delta) <= band

    def test_no_noise(self):
        w = unit(6)
        X, y = sample_sphere_dataset(6, 1000, w, 0.0, np.random.default_rng(2))
        assert np.array_equal(y, np.sign(X @ w))


class TestTrainLogistic:
    def test_zero_iterations_returns_zero_init(self):
        X, y = sample_sphere_dataset(4, 50, unit(4), 0.0, np.random.default_rng(3))
        assert np.array_equal(train_logistic(X, y, iters=0), np.zeros(4))

    def test_loss_decreases_on_separable_toy(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, -1.0])

        def loss(w):
            return np.mean(np.logaddexp(0.0, -y * (X @ w)))

        losses = [loss(train_logistic(X, y, iters=k)) for k in range(0, 60, 10)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_recovers_direction_in_2d(self):
        w_star = unit(2, seed=5)
        X, y = sample_sphere_dataset(2, 20_000, w_star, 0.0, np.random.default_rng(5))
        w = train_logistic(X, y, iters=500)
        cos = w @ w_star / np.linalg.norm(w)
        assert np.degrees(np.arccos(np.clip(cos, -1, 1))) < 5.0


class TestMisclassificationRate:
    def test_bayes_classifier_attains_bayes_risk(self):
        w_star = unit(20, seed=7)
        rate = misclassification_rate(w_star, 20, w_star, 0.2, 100_000,
                                      np.random.default_rng(7))
        assert rate == pytest.approx(0.2, abs=0.01)

    def test_antipodal_classifier(self):
        w_star = unit(10, seed=8)
        rate = misclassification_rate(-w_star, 10, w_star, 0.0, 20_000,
                                      np.random.default_rng(8))
        assert rate == pytest.approx(1.0, abs=0.01)

    def test_orthogonal_classifier_is_chance(self):
        w_star = unit(10, seed=9)
        v = np.zeros(10)
        v[int(np.argmin(np.abs(w_star)))] = 1.0
        v = v - (v @ w_star) * w_star
        rate = misclassification_rate(v, 10, w_star, 0.0, 50_000,
                                      np.random.default_rng(9))
        assert rate == pytest.approx(0.5, abs=0.02)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="undefined classifier"):
            misclassification_rate(np.zeros(3), 3, unit(3), 0.0, 10,
                                   np.random.default_rng(0))


SMALL_SPEC = SphereTaskSpec(d=20, delta=0.2, sample_sizes=(4, 8, 16, 32, 64, 128, 256),
                            test_size=2000, trials=4, seed=42)


class TestGenerateSphereCurve:
    def test_deterministic(self):
        a = generate_sphere_curve(SMALL_SPEC)
        b = generate_sphere_curve(SMALL_SPEC)
        assert a.curve == b.curve
        assert a.bayes_risk == 0.2

    def test_eps0_and_bayes_floor(self):
        out = generate_sphere_curve(SMALL_SPEC)
        assert out.curve.eps0 == 0.5
        n_eff = SMALL_SPEC.test_size * SMALL_SPEC.trials
        band = 3 * np.sqrt(0.2 * 0.8 / n_eff)
        assert all(e >= 0.2 - band for e in out.curve.eps)

    def test_overall_decrease(self):
        out = generate_sphere_curve(SMALL_SPEC)
        assert out.curve.eps[-1] < out.curve.eps[0]
        assert all(e - out.bayes_risk > 0 for e in out.curve.eps)

    def test_more_trials_less_variance(self):
        sizes = (16, 64, 256)

        def curves(trials, base):
            return np.array([
                generate_sphere_curve(SphereTaskSpec(
                    d=20, delta=0.2, sample_sizes=sizes, test_size=1000,
                    trials=trials, seed=base + s)).curve.eps
                for s in range(8)
            ])

        v1 = curves(1, 100).var(axis=0).mean()
        v8 = curves(8, 200).var(axis=0).mean()
        assert v8 < v1

    def test_one_dimension_with_noise_scores_zero_weights_at_chance(self):
        # With d=1 each y*x is exactly +-1, so a balanced draw leaves the
        # gradient, and hence w, at exactly zero for every step.
        out = generate_sphere_curve(SphereTaskSpec(
            d=1, delta=0.2, sample_sizes=(2, 4), test_size=50, trials=8))
        assert len(out.curve.eps) == 2
        assert all(0.0 < e < 0.5 for e in out.curve.eps)

    def test_point_at_chance_is_dropped_with_a_warning(self):
        spec = SphereTaskSpec(d=20, delta=0.3, sample_sizes=(2, 4, 64),
                              test_size=500, trials=2, seed=0)
        with pytest.warns(UserWarning, match=r"dropping x=2: averaged rate 0\.5060"):
            synth = generate_sphere_curve(spec)
        assert synth.curve.xs == (4.0, 64.0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SphereTaskSpec(d=10, delta=0.6, sample_sizes=(4, 8))
        with pytest.raises(ValueError):
            SphereTaskSpec(d=10, delta=0.2, sample_sizes=(8, 8))


class TestGenerateFromModel:
    def test_noiseless_exact(self):
        p = M1Params(beta=1.0, c=-0.5)
        curve = generate_from_model(p, (1, 4, 16), eps0=2.0)
        assert curve.eps == (1.0, 0.5, 0.25)

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            generate_from_model(M1Params(1, -0.5), (1, 4), noise_sigma=0.1, eps0=2.0)

    def test_eps0_required_when_params_have_none(self):
        with pytest.raises(ValueError, match="M1Params"):
            generate_from_model(M1Params(1, -0.5), (1, 4))

    def test_rejects_values_at_eps0(self):
        with pytest.raises(ValueError):
            generate_from_model(M1Params(1, -0.5), (1, 4), eps0=1.0)

    def test_noisy_m1_recovery_across_seeds(self):
        xs = np.geomspace(1, 4096, 12)
        errors = []
        for seed in range(20):
            curve = generate_from_model(
                M1Params(0.9, -0.4), xs, noise_sigma=0.01,
                rng=np.random.default_rng(seed), eps0=3.0)
            errors.append(abs(fit_m1(curve).params.c - (-0.4)))
        assert max(errors) < 0.02
