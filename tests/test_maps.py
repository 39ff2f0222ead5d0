import hashlib
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involstab import _ziggurat, algebra, maps
from involstab.algebra import SCALAR, matrix_spec, pointwise_spec
from involstab.errors import DegenerateDirection, KindSpecMismatch, SpecMismatch
from involstab.maps import (
    ApproxMap,
    Involution,
    LambdaSampler,
    NO_PERTURBATION,
    PerturbationSpec,
)

M2 = matrix_spec(2)
M3 = matrix_spec(3)
P3 = pointwise_spec(3)
P4 = pointwise_spec(4)
P7 = pointwise_spec(7)

DIAG12 = algebra.element(M2, [1, 0, 0, 2])


def radial(theta, r, seed=None):
    return PerturbationSpec("fixed_direction", theta, r, direction_seed=seed)


# f(z) = conj(z) + 0.1*|z|^{1/2} on scalars, canonical direction u = 1
SCALAR_F = ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR)


def involution_rows(kind, spec, X):
    """The involution on a stack, as the unperturbed map over its base."""
    return maps.eval_f_rows(ApproxMap(kind, NO_PERTURBATION, spec), X)


def sample_stack(spec, n, rng, rad=(0.1, 10.0)):
    return np.stack([algebra.sample_element(spec, rad, rng) for _ in range(n)])


def norms(spec, X):
    return np.array(algebra.stacked_norms(spec, X))


class TestEvalInvolution:
    def test_adjoint(self):
        x = algebra.element(M2, [0, 1, 0, 0]).data
        got = involution_rows(maps.adjoint(), M2, x[None])[0]
        assert np.array_equal(got, algebra.element(M2, [0, 0, 1, 0]).data)

    def test_twisted(self):
        # direct 2x2 computation of s^{-1} x* s with s = diag(1, 2)
        x = algebra.element(M2, [0, 1, 0, 0]).data
        got = involution_rows(maps.twisted_adjoint(DIAG12), M2, x[None])[0]
        assert np.array_equal(got, algebra.element(M2, [0, 0, 0.5, 0]).data)

    def test_twice_is_identity(self, any_spec, rng):
        kinds = [maps.adjoint()]
        if any_spec.kind is algebra.AlgebraKind.MATRIX:
            kinds.append(maps.twisted_adjoint(DIAG12))
        else:
            kinds.append(maps.conjugation())
        for kind in kinds:
            X = sample_stack(any_spec, 50, rng)
            twice = involution_rows(kind, any_spec, involution_rows(kind, any_spec, X))
            assert np.all(norms(any_spec, twice - X)
                          <= 1e-12 * np.maximum(1.0, norms(any_spec, X)))

    def test_conjugation_rejected_on_matrices(self):
        with pytest.raises(KindSpecMismatch):
            involution_rows(maps.conjugation(), M2, algebra.element(M2, [1, 0, 0, 1]).data[None])

    def test_twist_must_be_hermitian_invertible(self):
        with pytest.raises(ValueError):
            maps.twisted_adjoint(algebra.element(M2, [0, 1, 0, 0]))
        with pytest.raises(ValueError):
            maps.twisted_adjoint(algebra.element(M2, [1, 0, 0, 0]))


class TestInvolutionAxioms:
    """Axioms (i)-(iii) on >= 1000 random tuples per involution kind."""

    @pytest.mark.parametrize("spec,kind", [
        (M2, maps.adjoint()),
        (M2, maps.twisted_adjoint(DIAG12)),
        (SCALAR, maps.conjugation()),
        (P3, maps.conjugation()),
    ], ids=["adjoint", "twisted", "conj-scalar", "conj-pointwise"])
    def test_axioms(self, spec, kind, rng):
        xs, ys, lams, mus = [], [], [], []
        for _ in range(1000):
            xs.append(algebra.sample_element(spec, (0.1, 10.0), rng))
            ys.append(algebra.sample_element(spec, (0.1, 10.0), rng))
            lams.append(complex(rng.standard_normal(), rng.standard_normal()))
            mus.append(complex(rng.standard_normal(), rng.standard_normal()))
        X, Y = np.stack(xs), np.stack(ys)
        column = (-1,) + (1,) * len(spec.shape)
        lam, mu = np.array(lams).reshape(column), np.array(mus).reshape(column)

        def k(Z):
            return involution_rows(kind, spec, Z)

        nx, ny = norms(spec, X), norms(spec, Y)
        scale_ref = np.maximum(1.0, nx + ny)
        assert np.all(norms(spec, k(k(X)) - X) <= 1e-12 * scale_ref)
        lhs = k(lam * X + mu * Y)
        rhs = np.conj(lam) * k(X) + np.conj(mu) * k(Y)
        assert np.all(norms(spec, lhs - rhs) <= 1e-10 * scale_ref)
        lhs = k(algebra.mul_rows(spec, X, Y))
        rhs = algebra.mul_rows(spec, k(Y), k(X))
        assert np.all(norms(spec, lhs - rhs) <= 1e-10 * np.maximum(1.0, nx * ny))


class TestPerturbation:
    def test_none_and_zero(self, any_spec):
        Z = np.zeros((1, *any_spec.shape), dtype=np.complex128)
        assert np.array_equal(maps._perturbation_rows(NO_PERTURBATION, any_spec, Z), Z)
        for kind in ("fixed_direction", "random_direction"):
            p = PerturbationSpec(kind, 0.1, 0.5, direction_seed=3)
            assert np.array_equal(maps._perturbation_rows(p, any_spec, Z), Z)

    def test_scalar_canonical_direction(self):
        # 0.1 * 4^{0.5} by direct arithmetic
        got = maps._perturbation_rows(radial(0.1, 0.5), SCALAR, np.array([[4.0 + 0j]]))
        assert got[0, 0] == pytest.approx(0.2, abs=1e-14)

    def test_envelope(self, any_spec, rng):
        for kind in ("fixed_direction", "random_direction"):
            p = PerturbationSpec(kind, 0.07, 0.5, direction_seed=9)
            X = sample_stack(any_spec, 200, rng)
            delta = maps._perturbation_rows(p, any_spec, X)
            assert np.all(norms(any_spec, delta) <= 0.07 * norms(any_spec, X) ** 0.5 + 1e-12)

    def test_random_direction_is_a_function(self, rng):
        p = PerturbationSpec("random_direction", 0.1, 0.5, direction_seed=4)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        again = algebra.element(M2, x.reshape(-1)).data
        assert np.array_equal(maps._perturbation_rows(p, M2, x[None]),
                              maps._perturbation_rows(p, M2, again[None]))


class TestEvalF:
    def test_unperturbed_is_reference(self, rng):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        x = algebra.sample_element(M2, (0.5, 2.0), rng)
        assert np.array_equal(maps.eval_f_rows(f, x[None])[0], x.conj().T)

    def test_scalar_example(self):
        # 4 + 0.1*2 by direct arithmetic
        assert maps.eval_f_rows(SCALAR_F, np.array([[4.0 + 0j]]))[0, 0] == pytest.approx(4.2)

    def test_zero_maps_to_zero(self, any_spec):
        base = maps.adjoint() if any_spec.kind is algebra.AlgebraKind.MATRIX else maps.conjugation()
        f = ApproxMap(base, radial(0.3, 0.5, seed=2), any_spec)
        Z = np.zeros((1, *any_spec.shape), dtype=np.complex128)
        assert np.array_equal(maps.eval_f_rows(f, Z), Z)


class TestJensenDefect:
    def test_exact_involution_vanishes(self, rng):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        lams = maps.sample_lambdas(LambdaSampler(n0=3, seed=1))
        for stage, lam in lams:
            if stage not in ("arc", "circle"):
                continue
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            y = algebra.sample_element(M2, (0.1, 10.0), rng)
            d = maps.jensen_defect(f, lam, x[None], y[None])
            bound = 1e-12 * max(1.0, norms(M2, np.stack([x, y])).sum())
            assert algebra.stacked_norms(M2, d)[0] <= bound

    def test_scalar_example(self):
        # 2 f(2) - f(4) = 0.2*sqrt(2) - 0.2
        d = maps.jensen_defect(SCALAR_F, 1.0, np.array([[4.0 + 0j]]), np.array([[0j]]))
        expected = 0.2 * math.sqrt(2) - 0.2
        assert algebra.stacked_norms(SCALAR, d)[0] == pytest.approx(expected, abs=1e-12)

    def test_symmetric_degenerate(self, rng):
        x = algebra.sample_element(SCALAR, (0.5, 2.0), rng)
        d = maps.jensen_defect(SCALAR_F, 1.0, x[None], x[None])
        assert algebra.stacked_norms(SCALAR, d)[0] == 0.0

    def test_budget_lemma(self, rng):
        # theta_delta = THETA/3 keeps the defect below THETA*(|x|^r + |y|^r)
        # for unit-modulus lambda and r <= 1
        THETA = 0.3
        f = ApproxMap(maps.adjoint(), radial(THETA / 3, 0.5, seed=6), M2)
        lams = [lam for s, lam in maps.sample_lambdas(LambdaSampler(n0=3, arc=6, circle=6, seed=2))
                if s in ("arc", "circle")]
        for _ in range(200):
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            y = algebra.sample_element(M2, (0.1, 10.0), rng)
            budget = THETA * (norms(M2, np.stack([x, y])) ** 0.5).sum()
            for lam in lams:
                d = maps.jensen_defect(f, lam, x[None], y[None])
                assert algebra.stacked_norms(M2, d)[0] <= budget + 1e-12


class TestAntimulDefect:
    def test_exact_involution(self, rng):
        f = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        for _ in range(100):
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            y = algebra.sample_element(M2, (0.1, 10.0), rng)
            d = maps.antimul_defect(f, x[None], y[None])
            bound = 1e-12 * max(1.0, norms(M2, np.stack([x, y])).prod())
            assert algebra.stacked_norms(M2, d)[0] <= bound

    def test_zero_argument(self, rng):
        y = algebra.sample_element(SCALAR, (0.5, 2.0), rng)
        d = maps.antimul_defect(SCALAR_F, np.array([[0j]]), y[None])
        assert algebra.stacked_norms(SCALAR, d)[0] == 0.0

    def test_scalar_example(self):
        # f(4) - f(2)^2 = 4.2 - (2 + 0.1*sqrt(2))^2
        two = np.array([[2.0 + 0j]])
        d = maps.antimul_defect(SCALAR_F, two, two)
        expected = 4.2 - (2 + 0.1 * math.sqrt(2)) ** 2
        assert d[0, 0].real == pytest.approx(expected, abs=1e-12)
        assert algebra.stacked_norms(SCALAR, d)[0] == pytest.approx(abs(expected), abs=1e-12)


class TestCstarDefect:
    def test_adjoint_matrix(self, rng):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        for _ in range(100):
            x = algebra.sample_element(M2, (0.1, 10.0), rng)
            assert maps.cstar_defect(f, x[None])[0] <= 1e-9 * max(1.0, norms(M2, x[None])[0] ** 2)

    def test_twisted_witness(self):
        f = ApproxMap(maps.twisted_adjoint(DIAG12), NO_PERTURBATION, M2)
        x = algebra.element(M2, [0, 1, 0, 0])
        assert maps.cstar_defect(f, x.data[None])[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero(self):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        assert maps.cstar_defect(f, np.zeros((1, 2, 2), dtype=np.complex128))[0] == 0.0


class TestLambdaSampler:
    def test_stages_and_contracts(self):
        ls = LambdaSampler(n0=3, arc=5, circle=5, reals=4, cplx=4, seed=8)
        lams = maps.sample_lambdas(ls)
        assert lams[0] == ("arc", 1.0 + 0.0j)
        for stage, lam in lams:
            if stage == "arc":
                assert abs(abs(lam) - 1.0) <= 1e-12
                assert 0.0 <= np.angle(lam) <= 1.0 / 3 + 1e-12
            elif stage == "circle":
                assert abs(abs(lam) - 1.0) <= 1e-12
            elif stage == "reals":
                assert lam.imag == 0.0 and 0.1 <= lam.real <= 10.0
            else:
                assert 0.1 * (1 - 1e-9) <= abs(lam) <= 10.0 * (1 + 1e-9)

    def test_deterministic(self):
        ls = LambdaSampler(n0=2, seed=3)
        assert maps.sample_lambdas(ls) == maps.sample_lambdas(ls)

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaSampler(n0=0)
        with pytest.raises(ValueError):
            LambdaSampler(n0=1, arc=0)


class TestEvalFRows:
    @pytest.mark.parametrize("f", [
        ApproxMap(maps.conjugation(), radial(0.1, 0.5), SCALAR),
        ApproxMap(maps.conjugation(), NO_PERTURBATION, P3),
        ApproxMap(maps.conjugation(), PerturbationSpec("random_direction", 0.1, 0.5, 3), P3),
        ApproxMap(maps.adjoint(), radial(0.1, 0.5, seed=5), M2),
        ApproxMap(maps.twisted_adjoint(DIAG12),
                  PerturbationSpec("random_direction", 0.1, 0.5, 1), M2),
    ], ids=["scalar-fixed", "pointwise-none", "pointwise-random", "matrix-fixed",
            "twisted-random"])
    def test_rows_match_eval_f(self, rng, f):
        # A row's value is the same bits as in a one-row stack.
        X = np.concatenate([np.zeros((1, *f.spec.shape), dtype=np.complex128),
                            sample_stack(f.spec, 6, rng, (1e-7, 10.0))])
        rows = maps.eval_f_rows(f, X)
        assert rows.shape == (len(X), *f.spec.shape)
        for k, x in enumerate(X):
            assert maps.eval_f_rows(f, x[None])[0].tobytes() == rows[k].tobytes()

    def test_rows_shape_mismatch(self):
        f = ApproxMap(maps.adjoint(), NO_PERTURBATION, M2)
        with pytest.raises(SpecMismatch):
            maps.eval_f_rows(f, np.zeros((2, 3, 3), dtype=complex))


# Seeds at the edges of one and two 32-bit entropy words.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
Generator = np.random.Generator


def pcg64_state(seed):
    """The 128-bit state and increment of a freshly seeded PCG64, the pair
    `maps._pcg64_states` gives per seed."""
    state = np.random.PCG64(seed).state
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)
    return state["state"]["state"], state["state"]["inc"]


def hashed_gaussian_reference(spec, quantized, seed, generator=Generator):
    """The per-row draw: a fresh PCG64 seeded by the point's blake2b digest."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    h.update(np.ascontiguousarray(quantized.real).tobytes())
    h.update(np.ascontiguousarray(quantized.imag).tobytes())
    bits = np.random.PCG64(int.from_bytes(h.digest(), "little"))
    return algebra.gaussian_row(spec, generator(bits))


class FirstDrawsZero:
    """A Generator whose first `zeros` draws after each seeding come out all
    zero; each still consumes its share of the stream."""

    def __init__(self, bits, zeros):
        self._bits, self._rng, self._zeros = bits, Generator(bits), zeros
        self._state_after, self._count = None, 0

    def standard_normal(self, out):
        if self._bits.state != self._state_after:
            self._count = 0
        self._rng.standard_normal(out=out)
        if self._count < self._zeros:
            out[...] = 0.0
        self._count += 1
        self._state_after = self._bits.state
        return out


def quantized_stack(spec, n, rng):
    X = sample_stack(spec, n, rng, (1e-7, 10.0))
    X[0] = -1e-9  # entries that round to -0.0, whose bytes differ from +0.0
    return np.round(X * 1e6) / 1e6


def derive_ziggurat_tables():
    """numpy's ziggurat tables, derived from the installed numpy.  A PCG64
    state whose next state has high word 0 makes the next output any chosen
    r = rabs << 9 | idx: WI[idx] is the draw at rabs = 1, and KI[idx] the
    smallest rabs whose draw reads more than that one output (bisection)."""
    mask = (1 << 128) - 1
    inverse = pow(maps._PCG_MULT, -1, 1 << 128)
    bits = np.random.PCG64(0)
    rng = Generator(bits)
    full = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 1},
            "has_uint32": 0, "uinteger": 0}

    def draw(r):
        full["state"]["state"] = (r - 1) * inverse & mask
        bits.state = full
        value = rng.standard_normal()
        return value, bits.state["state"]["state"] == r

    ki, wi = [], []
    for idx in range(256):
        wi.append(draw(1 << 9 | idx)[0])
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if draw(mid << 9 | idx)[1] else (lo, mid)
        ki.append(lo)
    return ki, wi


def table_literals(ki, wi):
    """KI and WI in the literal format of involstab/_ziggurat.py."""
    def literal(name, items, per_line):
        lines = [f"{name} = ("]
        lines += ["    " + " ".join(items[i:i + per_line]) for i in range(0, len(items), per_line)]
        return "\n".join(lines + [")"])

    return (literal("KI", [f"0x{k:013X}," for k in ki], 4) + "\n\n"
            + literal("WI", [f"{w!r}," for w in wi], 3))


def replace_tables(monkeypatch, k=None, w=None):
    """Swap in ziggurat tables for one test; their self-check runs afresh."""
    zig = maps._ZIGGURAT
    monkeypatch.setattr(maps, "_ZIGGURAT", maps._Ziggurat(zig.k if k is None else k,
                                                          zig.w if w is None else w))


class TestHashedGaussians:
    """The batched draw replicates numpy's SeedSequence, PCG64's output
    stream and the fast path of its normal draw, and keeps every bit of the
    per-row draw."""

    def test_seed_words_match_numpy(self):
        words = maps._seed_words(np.array(EDGE_SEEDS, dtype=np.uint64))
        assert words.dtype == np.uint32 and words.shape == (len(EDGE_SEEDS), 8)
        for seed, row in zip(EDGE_SEEDS, words):
            expected = np.random.SeedSequence(seed).generate_state(8, np.uint32)
            assert row.tolist() == expected.tolist()

    def test_states_match_numpy(self):
        states = maps._pcg64_states(maps._seed_words(np.array(EDGE_SEEDS, dtype=np.uint64)))
        assert states == [pcg64_state(seed) for seed in EDGE_SEEDS]

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def test_replica_matches_numpy_sampled(self, seeds):
        words = maps._seed_words(np.array(seeds, dtype=np.uint64))
        for seed, row, state in zip(seeds, words, maps._pcg64_states(words)):
            assert row.tolist() == np.random.SeedSequence(seed).generate_state(
                8, np.uint32).tolist()
            assert state == pcg64_state(seed)

    @pytest.mark.parametrize("count", [2, 8, 14, 18, 32])
    def test_outputs_match_random_raw(self, count):
        out = maps._pcg64_outputs(maps._seed_words(np.array(EDGE_SEEDS, dtype=np.uint64)), count)
        assert out.dtype == np.uint64 and out.shape == (len(EDGE_SEEDS), count)
        for seed, row in zip(EDGE_SEEDS, out):
            assert row.tolist() == np.random.PCG64(seed).random_raw(count).tolist()

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8), st.integers(1, 40))
    def test_outputs_match_random_raw_sampled(self, seeds, count):
        out = maps._pcg64_outputs(maps._seed_words(np.array(seeds, dtype=np.uint64)), count)
        for seed, row in zip(seeds, out):
            assert row.tolist() == np.random.PCG64(seed).random_raw(count).tolist()

    def test_tables_match_numpy(self):
        # The literal tables against the installed numpy, box by box; on a
        # mismatch the message holds the derived tables in the source's
        # format, to paste into involstab/_ziggurat.py.
        ki, wi = derive_ziggurat_tables()
        expected = table_literals(ki, wi)
        same = list(_ziggurat.KI) == ki and np.array(_ziggurat.WI).tobytes() == np.array(wi).tobytes()
        assert same, f"ziggurat tables differ from numpy {np.__version__}:\n{expected}"
        assert expected in Path(_ziggurat.__file__).read_text()

    def test_corrupted_table_replays_every_row(self, monkeypatch, rng):
        # Every box's w an ulp off: the self-check finds it, and every row
        # is drawn by numpy's generator instead.
        replace_tables(monkeypatch, w=np.nextafter(maps._ZIGGURAT.w, np.inf))
        assert not maps._ZIGGURAT.agrees
        Q = quantized_stack(P4, 100, rng)
        got = maps._hashed_gaussians(P4, Q, 7)
        for k in range(len(Q)):
            assert got[k].tobytes() == hashed_gaussian_reference(P4, Q[k], 7).tobytes()

    def test_zero_draws_are_not_settled(self):
        # With every w zero, every draw is 0 and no row is settled: an
        # all-zero draw always goes to gaussian_parts, which redraws it.
        words = maps._seed_words(np.arange(100, dtype=np.uint64))
        zig = maps._Ziggurat(maps._ZIGGURAT.k, np.zeros_like(maps._ZIGGURAT.w))
        values, settled = zig.draws(words, 8)
        assert not values.any() and not settled.any()

    def test_fast_path_settles_most_rows(self, monkeypatch, rng):
        # A row is replayed when one of its 8 draws is not settled by the
        # fast path (1.46% of draws), about 11% of rows.  A replica that
        # replayed every row would pass every test of its bits.
        Q = quantized_stack(P4, 1000, rng)
        replayed = []
        gaussian_parts = algebra.gaussian_parts
        monkeypatch.setattr(algebra, "gaussian_parts",
                            lambda rng, out: replayed.append(1) or gaussian_parts(rng, out))
        maps._hashed_gaussians(P4, Q, 11)
        assert 50 <= len(replayed) <= 200

    @pytest.mark.parametrize("n", [1, 50, 129, 300])
    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("any_spec", [SCALAR, M2, P3, P7, M3],
                             ids=["scalar", "matrix", "pointwise", "pointwise7", "matrix3"])
    def test_rows_match_per_row_reference(self, any_spec, rng, n, seed):
        Q = quantized_stack(any_spec, n, rng)
        got = maps._hashed_gaussians(any_spec, Q, seed)
        assert got.shape == (n, *any_spec.shape) and got.dtype == np.complex128
        for k in range(n):
            expected = hashed_gaussian_reference(any_spec, Q[k], seed)
            assert got[k].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("zeros", [1, 7])
    def test_zero_draws_are_redrawn(self, monkeypatch, any_spec, rng, zeros):
        Q = quantized_stack(any_spec, 3, rng)
        plain = maps._hashed_gaussians(any_spec, Q, 5)
        replace_tables(monkeypatch, k=np.zeros_like(maps._ZIGGURAT.k))
        monkeypatch.setattr(np.random, "Generator", lambda bits: FirstDrawsZero(bits, zeros))
        monkeypatch.setattr(maps, "_REPLAY", threading.local())  # replay on a patched one
        got = maps._hashed_gaussians(any_spec, Q, 5)
        for k in range(len(Q)):
            expected = hashed_gaussian_reference(
                any_spec, Q[k], 5, generator=lambda bits: FirstDrawsZero(bits, zeros))
            assert got[k].tobytes() == expected.tobytes()
            assert got[k].tobytes() != plain[k].tobytes()

    def test_eight_zero_draws_raise(self, monkeypatch, any_spec, rng):
        Q = quantized_stack(any_spec, 3, rng)
        replace_tables(monkeypatch, k=np.zeros_like(maps._ZIGGURAT.k))
        monkeypatch.setattr(np.random, "Generator", lambda bits: FirstDrawsZero(bits, 8))
        monkeypatch.setattr(maps, "_REPLAY", threading.local())  # replay on a patched one
        with pytest.raises(DegenerateDirection):
            maps._hashed_gaussians(any_spec, Q, 5)

    def test_concurrent_calls_match_serial(self, rng):
        # Each call draws from its own generator: two threads, switching
        # every few microseconds, still get the serial rows.
        stacks = [quantized_stack(P3, 300, rng) for _ in range(2)]
        serial = [maps._hashed_gaussians(P3, Q, 5).tobytes() for Q in stacks]
        results = [[], []]
        barrier = threading.Barrier(2, timeout=60)

        def draw(i):
            barrier.wait()
            for _ in range(4):
                results[i].append(maps._hashed_gaussians(P3, stacks[i], 5).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[serial[0]] * 4, [serial[1]] * 4]

    def test_replay_generator_per_thread(self, rng):
        # Replayed rows draw from one generator per thread, made on the
        # thread's first replay.
        Q = quantized_stack(P4, 200, rng)

        def generator():
            maps._hashed_gaussians(P4, Q, 5)
            return maps._REPLAY.generator

        other = []
        thread = threading.Thread(target=lambda: other.extend(
            [hasattr(maps._REPLAY, "generator"), generator()]))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert generator() is generator()
        assert other[0] is False and other[1] is not generator()

    def test_gaussian_row_is_two_draws(self, any_spec):
        # One (2, *shape) block holds the real draw, then the imaginary one.
        rng_a, rng_b = Generator(np.random.PCG64(3)), Generator(np.random.PCG64(3))
        for _ in range(5):
            expected = (rng_b.standard_normal(any_spec.shape)
                        + 1j * rng_b.standard_normal(any_spec.shape))
            assert algebra.gaussian_row(any_spec, rng_a).tobytes() == expected.tobytes()


class TestPerturbationRows:
    """Broadcast scaling keeps the per-row loop's bits, including +0 rows."""

    @pytest.mark.parametrize("kind", ["fixed_direction", "random_direction"])
    @pytest.mark.parametrize("seed", [None, 4])
    def test_rows_match_per_row_scaling(self, any_spec, rng, kind, seed):
        # More rows than two of the chunks hashed directions are drawn in.
        p = PerturbationSpec(kind, 0.1, 0.5, direction_seed=seed)
        X = np.concatenate([np.zeros((1, *any_spec.shape), dtype=np.complex128),
                            np.full((1, *any_spec.shape), -1e-9 + 0j),
                            sample_stack(any_spec, 2 * maps._HASH_CHUNK + 6, rng, (1e-7, 10.0))])
        got = maps._perturbation_rows(p, any_spec, X)
        for k, x in enumerate(X):
            amplitude = 0.1 * algebra.stacked_norms(any_spec, x[None])[0] ** 0.5
            if kind == "fixed_direction":
                u = maps._fixed_direction(seed, any_spec)
                expected = complex(amplitude) * u
            else:
                q = np.round(x * 1e6) / 1e6
                expected = np.zeros(any_spec.shape, dtype=np.complex128)
                if q.any():
                    g = hashed_gaussian_reference(any_spec, q, seed)
                    n = algebra.stacked_norms(any_spec, g[None])[0]
                    expected = complex(amplitude) * (complex(1.0 / n) * g)
            if amplitude == 0.0:
                expected = np.zeros(any_spec.shape, dtype=np.complex128)
            assert got[k].tobytes() == expected.tobytes()
        assert not np.signbit(got[0].view(np.float64)).any()

    @pytest.mark.parametrize("kind", ["fixed_direction", "random_direction"])
    def test_overflowing_amplitude_gives_nonfinite_rows(self, any_spec, kind):
        # 1e9 * 1e300 overflows to inf: the row is not finite, for the
        # orbit to reject, and no warning is raised.
        p = PerturbationSpec(kind, 1e9, 1.0)
        X = np.full((2, *any_spec.shape), 1e300 + 0j)
        X[0] = 0.5
        got = maps._perturbation_rows(p, any_spec, X)
        assert np.isfinite(got[0]).all() and not np.isfinite(got[1]).all()
