import hashlib
import random

import pytest

from repfn import singer
from repfn.groups import VerificationError
from repfn.profiles import RepProfile, rep_diff_profile, rep_profile
from repfn.singer import (
    DEFAULT_PRIME_BOUND,
    field_ctx_build,
    field_mul,
    field_pow,
    is_prime,
    singer_set,
)


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 997}
        for n in range(-3, 40):
            assert is_prime(n) == (n in primes)
        assert is_prime(997)
        assert not is_prime(999)


class TestFieldCtx:
    def test_p2_modulus_is_smallest_irreducible(self):
        ctx = field_ctx_build(2)
        # x^3 + x + 1, stored in ascending degree with leading 1
        assert ctx.modulus == (1, 1, 0, 1)

    def test_p2_reduction_example(self):
        ctx = field_ctx_build(2)
        assert field_mul(ctx, (0, 1, 0), (0, 0, 1)) == (1, 1, 0)

    def test_identity_and_zero(self):
        for p in (2, 3, 5):
            ctx = field_ctx_build(p)
            u = (1, 2 % p, 1)
            assert field_mul(ctx, u, (1, 0, 0)) == u
            assert field_mul(ctx, u, (0, 0, 0)) == (0, 0, 0)

    @staticmethod
    def reference_mul(modulus, p, u, v):
        # Degree-4 schoolbook product, then long division by the monic
        # modulus (c, b, a, 1), top degree first.
        w = [0] * 5
        for i in range(3):
            for j in range(3):
                w[i + j] += u[i] * v[j]
        for d in (4, 3):
            q = w[d]
            for k in range(4):
                w[d - 3 + k] -= q * modulus[k]
        assert w[3] == w[4] == 0
        return tuple(x % p for x in w[:3])

    def test_whole_multiplication_table(self):
        for p in (2, 3, 5):
            ctx = field_ctx_build(p)
            triples = [(c0, c1, c2) for c0 in range(p) for c1 in range(p) for c2 in range(p)]
            for u in triples:
                for v in triples:
                    got = field_mul(ctx, u, v)
                    assert got == self.reference_mul(ctx.modulus, p, u, v), (p, u, v)
                    assert got == field_mul(ctx, v, u), (p, u, v)

    def test_random_products_at_p997(self):
        p, rng = 997, random.Random(997)
        ctx = field_ctx_build(p)
        for _ in range(2000):
            u = tuple(rng.randrange(p) for _ in range(3))
            v = tuple(rng.randrange(p) for _ in range(3))
            got = field_mul(ctx, u, v)
            assert got == self.reference_mul(ctx.modulus, p, u, v), (u, v)
            assert got == field_mul(ctx, v, u), (u, v)

    def test_modulus_has_no_root(self):
        for p in (2, 3, 5, 7):
            c, b, a, lead = field_ctx_build(p).modulus
            assert lead == 1
            for t in range(p):
                assert (t**3 + a * t**2 + b * t + c) % p != 0

    def test_modulus_is_least_irreducible_cubic(self):
        # reference scan: every (a, b, c) in order, each with a root scan
        for p in (n for n in range(2, 60) if is_prime(n)):
            least = next(
                (c, b, a, 1)
                for a in range(p)
                for b in range(p)
                for c in range(p)
                if all((t**3 + a * t**2 + b * t + c) % p for t in range(p))
            )
            assert field_ctx_build(p).modulus == least, p

    def test_primitive_element_order(self):
        for p in (2, 3, 5):
            ctx = field_ctx_build(p)
            q = p**3 - 1
            assert field_pow(ctx, ctx.primitive, q) == (1, 0, 0)
            seen = set()
            u = (1, 0, 0)
            for _ in range(q):
                seen.add(u)
                u = field_mul(ctx, u, ctx.primitive)
            assert len(seen) == q

    def test_primitive_is_least_full_order_triple(self):
        # reference scan over every nonzero triple in (c2, c1, c0) order,
        # GF(p) itself included, testing full order by trial factoring
        for p in (n for n in range(2, 60) if is_prime(n)):
            ctx = field_ctx_build(p)
            q = p**3 - 1
            factors, rest, f = [], q, 2
            while rest > 1:
                if rest % f == 0:
                    factors.append(f)
                    while rest % f == 0:
                        rest //= f
                f += 1
            least = next(
                (c0, c1, c2)
                for c2 in range(p)
                for c1 in range(p)
                for c0 in range(p)
                if (c0, c1, c2) != (0, 0, 0)
                and all(field_pow(ctx, (c0, c1, c2), q // f) != (1, 0, 0) for f in factors)
            )
            assert ctx.primitive == least, p

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            field_ctx_build(4)
        with pytest.raises(ValueError):
            field_ctx_build(1)


class TestSingerSet:
    def test_defining_property(self):
        for p in (2, 3, 5, 7):
            pds = singer_set(p)
            n = p * p + p + 1
            assert pds.n == n
            assert pds.subset.card == p + 1
            diff = rep_diff_profile(pds.subset)
            assert diff.counts[0] == p + 1
            assert all(c == 1 for c in diff.counts[1:])

    def test_pinned_small_sets(self):
        assert singer_set(2).elements == [0, 1, 3]
        assert singer_set(3).elements == [0, 1, 3, 9]

    def test_deterministic(self):
        assert singer_set(5).elements == singer_set(5).elements

    def test_sum_side_spectrum(self):
        for p in (2, 3, 5):
            pds = singer_set(p)
            spec = rep_profile(pds.subset).spectrum()
            assert spec.max_rep <= 2
            assert spec[2] == (p + 1) * p // 2
            assert spec[1] == p + 1

    def test_rejects_nonprime_and_over_bound(self):
        with pytest.raises(ValueError):
            singer_set(6)
        assert is_prime(1009) and 1009 > DEFAULT_PRIME_BOUND
        with pytest.raises(ValueError, match="bound"):
            singer_set(1009)

    def test_medium_prime(self):
        pds = singer_set(29)
        assert pds.subset.card == 30


class TestWalk:
    def test_recurrence_walk_matches_field_multiplication(self):
        # The reference walk multiplies by the primitive element every step.
        for p in (2, 3, 5, 7, 11, 13, 31, 47):
            ctx = field_ctx_build(p)
            n = p * p + p + 1
            want, u = [], (1, 0, 0)
            for i in range(n):
                if u[2] == 0:
                    want.append(i)
                u = field_mul(ctx, u, ctx.primitive)
            assert singer_set(p).elements == want

    def test_built_once_per_prime(self):
        assert singer_set(17) is singer_set(17)


class TestBlockEvaluation:
    # sha256 of ",".join(map(str, singer_set(p).elements)), recorded from the
    # one-step-per-exponent walk; p = 401 is also perfbench/singer401.json.
    PINNED = {
        211: "885870f6ac6cc1feea17475ceca602026a1fa20bd9ba11b07233ad6f132ce200",
        307: "a6793466b5d1e66798f6a400a605c7ffffcaf89cebe6386f0e9d6567fdf4918a",
        401: "d1d8a98624e3eba500ac591640abd2a02aa9be57ef7a1c532c04114c22697303",
        997: "634c6103760456aba787434e4a75eb9300005f492668a4d06564b3b31ab40b1e",
    }

    def test_benchmark_sets_are_pinned(self):
        for p, digest in self.PINNED.items():
            text = ",".join(map(str, singer_set(p).elements))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, p

    def test_every_prime_under_the_bound_is_pinned(self):
        # One "p:e0,e1,...\n" line per prime p <= DEFAULT_PRIME_BOUND, in
        # order, hashed together.
        digest = hashlib.sha256()
        primes = [p for p in range(2, DEFAULT_PRIME_BOUND + 1) if is_prime(p)]
        for p in primes:
            digest.update(f"{p}:{','.join(map(str, singer_set(p).elements))}\n".encode())
        assert len(primes) == 168
        assert digest.hexdigest() == "b01289d0b98ae4b8c1e7877c3a9ba7d137c9f3161135067e0990863e14fb2b3e"

    def test_every_small_prime_matches_field_multiplication(self):
        # Each p < 60 gives another (B, K) block shape, p = 2 included.
        for p in (n for n in range(2, 60) if is_prime(n)):
            ctx = field_ctx_build(p)
            u, want = (1, 0, 0), []
            for i in range(p * p + p + 1):
                if u[2] == 0:
                    want.append(i)
                u = field_mul(ctx, u, ctx.primitive)
            assert singer_set(p).elements == want, p

    @pytest.mark.parametrize("slot", [0, 1, -1])
    def test_certificate_rejects_a_count_off_by_one(self, monkeypatch, slot):
        def one_off(subset):
            counts = list(rep_diff_profile(subset).counts)
            counts[slot] += 1
            return RepProfile(subset.group, tuple(counts))

        monkeypatch.setattr(singer, "rep_diff_profile", one_off)
        before = singer._build_singer_set.cache_info()
        with pytest.raises(VerificationError, match="difference profile"):
            singer._build_singer_set.__wrapped__(13)
        assert singer._build_singer_set.cache_info() == before
        monkeypatch.undo()
        assert singer_set(13).subset.card == 14

    def test_certificate_rejects_a_wrong_member_count(self, monkeypatch):
        walk = singer._x2_coordinates

        def one_more_zero(ctx, n):
            vals = walk(ctx, n)
            vals[vals.nonzero()[0][0]] = 0
            return vals

        monkeypatch.setattr(singer, "_x2_coordinates", one_more_zero)
        with pytest.raises(VerificationError, match="expected 14 elements, built 15"):
            singer._build_singer_set.__wrapped__(13)
