"""Instance generation: signal vectors, symmetrized noise, spikes, and the
anti-correlated noise split."""

import json

import numpy as np
import pytest

from tensorpca import (
    DetectionConfig,
    InvalidParameterError,
    ModelParams,
    SpikedTensor,
    decorrelate,
    default_zeta,
    lambda_effective,
    load_tensor,
    make_spiked,
    p_threshold,
    sample_gaussian_tensor,
    sample_signal,
    save_tensor,
)
from tensorpca.instance import noise_power_per_entry
from tensorpca.symtensor import SymmetricTensor4, layout, rank_one


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSampleSignal:
    def test_one_mode_gives_plus_or_minus_one(self):
        vals = {float(sample_signal(1, rng(s))[0]) for s in range(20)}
        assert vals <= {1.0, -1.0}
        assert len(vals) == 2

    def test_norm_is_sqrt_n_exactly(self):
        for n in (2, 4, 17):
            v = sample_signal(n, rng(n))
            assert abs(np.linalg.norm(v) - np.sqrt(n)) < 1e-12

    def test_zero_modes_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_signal(0, rng())

    def test_component_means_vanish(self):
        # rotation invariance: per-component mean of v/sqrt(N) is 0 with
        # std 1/sqrt(samples); allow 4 sigma
        n, samples = 64, 10000
        g = rng(123)
        acc = np.zeros(n)
        for _ in range(samples):
            acc += sample_signal(n, g) / np.sqrt(n)
        means = acc / samples
        assert np.all(np.abs(means) < 4.0 / np.sqrt(samples))


class TestGaussianTensor:
    def test_single_mode_single_entry_unit_variance(self):
        g = rng(5)
        vals = np.array([sample_gaussian_tensor(1, g).values[0] for _ in range(20000)])
        assert abs(vals.var() - 1.0) < 0.05
        assert abs(vals.mean()) < 0.05

    def test_permutation_symmetry_is_structural(self):
        t = sample_gaussian_tensor(2, rng(1))
        assert t[0, 0, 1, 1] == t[1, 1, 0, 0]
        assert t[0, 1, 0, 1] == t[1, 1, 0, 0]
        dense = t.to_dense()
        assert np.array_equal(dense, np.transpose(dense, (3, 2, 1, 0)))
        assert np.array_equal(dense, np.transpose(dense, (1, 0, 2, 3)))

    def test_distinct_index_entry_variance_is_one_over_24(self):
        # averaging over the 24 orderings of four distinct indices leaves
        # variance 1/24 (the example needs N >= 4 to host such an entry)
        g = rng(7)
        idx = layout(4).index[(0, 1, 2, 3)]
        vals = np.array([sample_gaussian_tensor(4, g).values[idx] for _ in range(20000)])
        assert abs(vals.var() - 1.0 / 24.0) < 0.05 / 24.0 * 5  # 5% of target

    def test_repeated_index_variances(self):
        g = rng(11)
        lay = layout(2)
        samples = np.array([sample_gaussian_tensor(2, g).values for _ in range(20000)])
        for tup, expected in [((0, 0, 0, 0), 1.0), ((0, 0, 0, 1), 0.25), ((0, 0, 1, 1), 1.0 / 6.0)]:
            var = samples[:, lay.index[tup]].var()
            assert abs(var - expected) < 0.05 * expected

    def test_complex_ensemble_halves(self):
        g = rng(17)
        vals = np.array(
            [sample_gaussian_tensor(1, g, ensemble="complex").values[0] for _ in range(20000)]
        )
        assert abs(vals.real.var() - 0.5) < 0.03
        assert abs(vals.imag.var() - 0.5) < 0.03

    def test_noise_power_per_entry(self):
        # number of canonical entries over N^4
        assert noise_power_per_entry(2) == 5.0 / 16.0

    def test_noise_power_closed_form_matches_layout(self):
        for n in range(1, 49):
            assert noise_power_per_entry(n) == layout(n).size / float(n) ** 4

    def test_noise_power_and_threshold_need_no_layout(self, monkeypatch):
        def no_layout(n_modes):
            raise AssertionError(f"layout({n_modes}) was built")

        monkeypatch.setattr("tensorpca.instance.layout", no_layout)
        n = 10**9
        assert noise_power_per_entry(n) == pytest.approx(1.0 / 24.0, rel=1e-8)
        params = ModelParams(N=n, n_bos=4, lambda_bar=0.5)
        assert 0.0 < p_threshold(params, DetectionConfig()) < 1.0


class TestMakeSpiked:
    def test_zero_strength_returns_noise_unchanged(self):
        g = sample_gaussian_tensor(3, rng(2))
        v = sample_signal(3, rng(3))
        t = make_spiked(0.0, v, g)
        assert t.provenance == "unspiked"
        assert np.array_equal(t.tensor.values, g.values)

    def test_pure_spike_in_aligned_frame(self):
        n = 3
        v = np.sqrt(n) * np.eye(n)[0]
        zero = SymmetricTensor4.zeros(n)
        t = make_spiked(1.0, v, zero)
        assert t.tensor[0, 0, 0, 0] == pytest.approx(n**2, abs=1e-12)
        others = np.abs(t.tensor.values).sum() - abs(t.tensor[0, 0, 0, 0])
        assert others == pytest.approx(0.0, abs=1e-12)

    def test_entrywise_sum(self):
        g = SymmetricTensor4.zeros(2)
        g.values[layout(2).index[(0, 0, 0, 0)]] = 0.3
        t = make_spiked(0.5, np.array([1.0, 1.0]), g)
        assert t.tensor[0, 0, 0, 0] == pytest.approx(0.5 * 1.0 + 0.3, abs=1e-14)

    def test_shape_mismatch_rejected(self):
        g = sample_gaussian_tensor(3, rng(4))
        with pytest.raises(InvalidParameterError):
            make_spiked(1.0, np.ones(4), g)


class TestDecorrelate:
    def test_effective_strengths(self):
        lam_plus, lam_minus = lambda_effective(0.2, 0.5)
        assert lam_plus == pytest.approx(0.2 / np.sqrt(1.25), abs=1e-12)
        assert lam_minus == pytest.approx(0.2 / np.sqrt(5.0), abs=1e-12)
        v = sample_signal(2, rng(5))
        g = sample_gaussian_tensor(2, rng(6))
        pair = decorrelate(make_spiked(0.2, v, g), 0.5, rng(7))
        assert pair.lambda_plus == pytest.approx(0.178885438, abs=1e-8)
        assert pair.lambda_minus == pytest.approx(0.089442719, abs=1e-8)

    def test_zero_injected_noise(self):
        g = sample_gaussian_tensor(2, rng(8))
        t0 = make_spiked(0.0, sample_signal(2, rng(9)), g)
        zeros = SymmetricTensor4.zeros(2)
        pair = decorrelate(t0, 0.7, g_prime=zeros)
        scale = 1.0 / np.sqrt(1.0 + 0.49)
        assert np.allclose(pair.t_plus.values, t0.tensor.values * scale, atol=1e-14)
        assert np.allclose(pair.t_minus.values, t0.tensor.values * scale, atol=1e-14)

    def test_reconstruction_identities(self):
        zeta = 0.37
        g = sample_gaussian_tensor(3, rng(10))
        gp = sample_gaussian_tensor(3, rng(11))
        t0 = make_spiked(0.4, sample_signal(3, rng(12)), g)
        pair = decorrelate(t0, zeta, g_prime=gp)
        lhs = pair.t_plus * np.sqrt(1 + zeta**2) - t0.tensor
        assert np.abs(lhs.values - zeta * gp.values).max() < 1e-12
        rhs = t0.tensor - pair.t_minus * np.sqrt(1 + zeta**2)
        assert np.abs(rhs.values - gp.values / zeta).max() < 1e-12

    def test_injected_noises_uncorrelated(self):
        # entrywise correlation of the two noise parts across 20000 draws
        zeta, n_samples = 0.6, 20000
        g = rng(14)
        idx = layout(2).index[(0, 1, 1, 1)]
        plus, minus = np.empty(n_samples), np.empty(n_samples)
        for i in range(n_samples):
            noise = sample_gaussian_tensor(2, g)
            t0 = SpikedTensor(tensor=noise, lam=0.0)
            pair = decorrelate(t0, zeta, g)
            plus[i] = pair.t_plus.values[idx].real
            minus[i] = pair.t_minus.values[idx].real
        r = np.corrcoef(plus, minus)[0, 1]
        assert abs(r) < 4.0 / np.sqrt(n_samples)

    def test_noise_variance_matches_base_convention(self):
        # with the claimed strength planted, t_plus minus its signal part is
        # distributed like the base symmetrized noise
        zeta, n_samples, lam = 0.5, 10000, 0.3
        g = rng(15)
        v = sample_signal(2, rng(16))
        spike_part = rank_one(v) * (lam * (1 + zeta**2) ** -0.5)
        lay = layout(2)
        resid = np.empty((n_samples, len(lay.tuples)))
        for i in range(n_samples):
            t0 = make_spiked(lam, v, sample_gaussian_tensor(2, g))
            pair = decorrelate(t0, zeta, g)
            resid[i] = pair.t_plus.values - spike_part.values
        target = 1.0 / lay.orbit_sizes
        assert np.all(np.abs(resid.var(axis=0) - target) < 0.05 * target)

    def test_strength_ordering_and_limit(self):
        for zeta in (0.1, 0.5, 0.9):
            lp, lm = lambda_effective(1.0, zeta)
            assert lp > lm
        lp, _ = lambda_effective(1.0, 1e-9)
        assert lp == pytest.approx(1.0, abs=1e-12)

    def test_add_imaginary_makes_complex_noise(self):
        g = rng(18)
        t0 = SpikedTensor(tensor=sample_gaussian_tensor(2, g), lam=0.0)
        pair = decorrelate(t0, 0.5, g, add_imaginary=True)
        assert pair.t_minus.is_complex
        assert not pair.t_plus.is_complex

    def test_bad_zeta_rejected(self):
        t0 = SpikedTensor(tensor=sample_gaussian_tensor(2, rng(19)), lam=0.0)
        with pytest.raises(InvalidParameterError):
            decorrelate(t0, 0.0, rng(20))


class TestDefaultZeta:
    def test_values(self):
        assert default_zeta(7) == pytest.approx(1.0 / np.log(7), abs=1e-12)
        assert default_zeta(7) == pytest.approx(0.5138983, abs=1e-6)
        assert default_zeta(2) == pytest.approx(1.4426950, abs=1e-6)

    def test_monotone_decay(self):
        vals = [default_zeta(n) for n in range(2, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            default_zeta(1)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(N=0, n_bos=4)
        with pytest.raises(InvalidParameterError):
            ModelParams(N=4, n_bos=1)
        with pytest.raises(TypeError):
            ModelParams(N=4, n_bos=4, p=3)
        with pytest.raises(InvalidParameterError):
            ModelParams(N=4, n_bos=4, zeta=-1.0)

    def test_zeta_rule(self):
        p = ModelParams(N=8, n_bos=4)
        assert p.effective_zeta == pytest.approx(1.0 / np.log(8))
        assert ModelParams(N=8, n_bos=4, zeta=0.25).effective_zeta == 0.25

    def test_input_state_needs_multiple_of_four(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(N=4, n_bos=6).require_input_state()
        ModelParams(N=4, n_bos=8).require_input_state()


class TestTensorFiles:
    @pytest.mark.parametrize("fmt", ["json", "binary"])
    def test_roundtrip_bit_exact(self, tmp_path, fmt):
        v = sample_signal(3, rng(21))
        t = make_spiked(0.25, v, sample_gaussian_tensor(3, rng(22)))
        path = tmp_path / f"tensor.{fmt}"
        save_tensor(path, t, fmt=fmt)
        back = load_tensor(path)
        assert np.array_equal(back.tensor.values, t.tensor.values)
        assert back.lam == t.lam and back.provenance == t.provenance

    def test_complex_roundtrip(self, tmp_path):
        g = sample_gaussian_tensor(2, rng(23), ensemble="complex")
        t = SpikedTensor(tensor=g, lam=0.0)
        for fmt in ("json", "binary"):
            path = tmp_path / f"c.{fmt}"
            save_tensor(path, t, fmt=fmt)
            back = load_tensor(path)
            assert np.array_equal(back.tensor.values, g.values)

    @pytest.mark.parametrize("fmt", ["json", "binary"])
    @pytest.mark.parametrize(
        "lam, ensemble, provenance",
        [(0.25, "real", "spiked"), (0.0, "real", "unspiked"),
         (0.25, "complex", "spiked"), (0.0, "complex", "unspiked")],
    )
    def test_roundtrip_keeps_provenance_and_ensemble(self, tmp_path, fmt, lam, ensemble,
                                                     provenance):
        g = sample_gaussian_tensor(3, rng(27), ensemble=ensemble)
        t = make_spiked(lam, sample_signal(3, rng(28)), g)
        assert (t.provenance, t.ensemble) == (provenance, ensemble)
        save_tensor(tmp_path / "t", t, fmt=fmt)
        back = load_tensor(tmp_path / "t")
        assert (back.provenance, back.ensemble) == (provenance, ensemble)

    @pytest.mark.parametrize(
        "lam, is_complex, field, value",
        [(0.25, False, "provenance", "unspiked"), (0.0, False, "provenance", "spiked"),
         (0.0, False, "ensemble", "complex"), (0.0, True, "ensemble", "real")],
    )
    def test_header_contradicting_its_data_is_refused(self, tmp_path, lam, is_complex,
                                                      field, value):
        # provenance follows from lambda and ensemble from the complex flag,
        # so a header that states otherwise is malformed
        g = sample_gaussian_tensor(3, rng(29), ensemble="complex" if is_complex else "real")
        path = tmp_path / "t.json"
        save_tensor(path, make_spiked(lam, sample_signal(3, rng(30)), g))
        header = json.loads(path.read_text())
        load_tensor(path)
        header[field] = value
        path.write_text(json.dumps(header))
        with pytest.raises(InvalidParameterError, match=field):
            load_tensor(path)

    def test_identical_seeds_identical_files(self, tmp_path):
        for name in ("a", "b"):
            t, _ = __import__("tensorpca").sample_instance(
                ModelParams(N=3, n_bos=4, lambda_bar=0.1, seed=9), spiked=True
            )
            save_tensor(tmp_path / name, t, fmt="binary")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @staticmethod
    def _tensor(is_complex):
        if is_complex:
            g = sample_gaussian_tensor(3, rng(24), ensemble="complex")
            return SpikedTensor(tensor=g, lam=0.0)
        return make_spiked(0.25, sample_signal(3, rng(25)), sample_gaussian_tensor(3, rng(26)))

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_documented_layout(self, tmp_path, is_complex):
        # FORMATS.md: binary is one header line without arrays, then 8 bytes
        # per real entry or 16 per complex one (re, im interleaved); the
        # JSON variant is the same header plus entries or entries_re/entries_im
        t = self._tensor(is_complex)
        vals = t.tensor.values
        save_tensor(tmp_path / "t.bin", t, fmt="binary")
        line, payload = (tmp_path / "t.bin").read_bytes().split(b"\n", 1)
        header = json.loads(line)
        assert header == {
            "format": "tensorpca/tensor-v1", "N": 3, "p": 4, "ensemble": t.ensemble,
            "layout": "sorted-tuples", "lambda": t.lam, "provenance": t.provenance,
            "complex": is_complex,
        }
        assert len(payload) == (16 if is_complex else 8) * len(layout(3).tuples)
        raw = np.frombuffer(payload, dtype="<f8")
        if is_complex:
            assert np.array_equal(raw[0::2], vals.real)
            assert np.array_equal(raw[1::2], vals.imag)
            arrays = {"entries_re": vals.real.tolist(), "entries_im": vals.imag.tolist()}
        else:
            assert np.array_equal(raw, vals)
            arrays = {"entries": vals.tolist()}
        save_tensor(tmp_path / "t.json", t, fmt="json")
        assert json.loads((tmp_path / "t.json").read_text()) == {**header, **arrays}

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("cut", [3, 8])
    def test_truncated_binary_is_a_validation_error(self, tmp_path, is_complex, cut):
        path = tmp_path / "t.bin"
        save_tensor(path, self._tensor(is_complex), fmt="binary")
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(InvalidParameterError):
            load_tensor(path)

    @pytest.mark.parametrize("key", ["lambda", "entries_im"])
    def test_missing_json_field_is_a_validation_error(self, tmp_path, key):
        path = tmp_path / "t.json"
        save_tensor(path, self._tensor(True), fmt="json")
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameterError):
            load_tensor(path)
