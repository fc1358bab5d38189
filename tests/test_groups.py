import json
import random

import numpy as np
import pytest

from repfn.bounds import random_subset
from repfn.groups import (
    Group,
    GroupMismatchError,
    GroupSubset,
    InvalidElementError,
    UnsupportedGroupError,
    parse_subset,
    read_subset,
    subset_from_json_dict,
    subset_from_text,
)


class TestGroup:
    def test_cyclic_basics(self):
        g = Group.cyclic(7)
        assert g.orders == (7,)
        assert g.order == 7
        assert g.is_cyclic
        assert list(g.elements()) == list(range(7))

    def test_product_order(self):
        g = Group((2, 3, 5))
        assert g.order == 30
        assert not g.is_cyclic

    def test_orders_normalized_to_ints(self):
        g = Group((2.0, 3.0))  # numpy scalars and friends funnel through int()
        assert g.orders == (2, 3)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            Group(())
        with pytest.raises(ValueError):
            Group((0,))
        with pytest.raises(ValueError):
            Group((3, -1))

    def test_order_one_group_is_legal(self):
        g = Group.cyclic(1)
        assert g.order == 1
        assert g.add(0, 0) == 0
        assert g.neg(0) == 0

    def test_encode_decode_round_trip(self):
        g = Group((3, 4, 5))
        for i in range(g.order):
            assert g.encode(g.decode(i)) == i

    def test_decode_is_row_major_last_fastest(self):
        g = Group((2, 3))
        assert g.decode(0) == (0, 0)
        assert g.decode(1) == (0, 1)
        assert g.decode(3) == (1, 0)
        assert g.encode((1, 2)) == 5

    def test_add_cyclic(self):
        g = Group.cyclic(7)
        assert g.add(3, 5) == 1
        assert g.add(0, 4) == 4

    def test_add_product(self):
        g = Group((2, 3))
        # (1,2) + (1,1) = (0,0)
        assert g.add(5, 4) == 0

    def test_neg(self):
        g = Group.cyclic(7)
        assert g.neg(3) == 4
        assert g.neg(0) == 0
        h = Group((2, 3))
        for x in h.elements():
            assert h.add(x, h.neg(x)) == 0
            assert h.neg(h.neg(x)) == x

    def test_check_element_bounds(self):
        g = Group.cyclic(5)
        with pytest.raises(InvalidElementError):
            g.check_element(5)
        with pytest.raises(InvalidElementError):
            g.check_element(-1)
        with pytest.raises(InvalidElementError):
            g.encode((5,))
        with pytest.raises(InvalidElementError):
            g.encode((1, 1))


class TestGroupSubset:
    def test_membership_and_card(self):
        g = Group.cyclic(10)
        a = GroupSubset.from_elements(g, [1, 3, 3, 7])
        assert a.card == 3
        assert len(a) == 3
        assert 3 in a
        assert 4 not in a
        assert 11 not in a
        assert a.elements() == [1, 3, 7]
        assert list(a) == [1, 3, 7]

    def test_empty_and_full(self):
        g = Group.cyclic(4)
        assert GroupSubset.empty(g).card == 0
        full = GroupSubset.full(g)
        assert full.card == 4
        assert full.elements() == [0, 1, 2, 3]

    def test_bits_out_of_range_rejected(self):
        g = Group.cyclic(3)
        with pytest.raises(InvalidElementError):
            GroupSubset(g, 1 << 3)
        with pytest.raises(InvalidElementError):
            GroupSubset.from_elements(g, [3])

    def test_union_and_mismatch(self):
        g = Group.cyclic(6)
        a = GroupSubset.from_elements(g, [0, 1])
        b = GroupSubset.from_elements(g, [1, 4])
        assert (a | b).elements() == [0, 1, 4]
        with pytest.raises(GroupMismatchError):
            a.union(GroupSubset.from_elements(Group.cyclic(7), [1]))

    def test_negate(self):
        g = Group.cyclic(7)
        a = GroupSubset.from_elements(g, [1, 2, 4])
        assert a.negate().elements() == [3, 5, 6]
        assert a.negate().negate() == a
        assert GroupSubset.empty(g).negate().card == 0
        assert GroupSubset.full(g).negate() == GroupSubset.full(g)

    def test_translate(self):
        g = Group.cyclic(5)
        a = GroupSubset.from_elements(g, [0, 1])
        assert a.translate(3).elements() == [3, 4]
        assert a.translate(4).elements() == [0, 4]

    def test_dilate_shift_examples(self):
        src = Group.cyclic(7)
        b = GroupSubset.from_elements(src, [1, 2, 4])
        target = Group.cyclic(14)
        assert b.dilate_shift(2, 0, target).elements() == [2, 4, 8]
        assert b.dilate_shift(2, 3, target).elements() == [5, 7, 11]
        assert GroupSubset.empty(src).dilate_shift(2, 3, target).card == 0

    def test_dilate_shift_identity(self):
        g = Group.cyclic(9)
        a = GroupSubset.from_elements(g, [0, 2, 5])
        assert a.dilate_shift(1, 0, g) == a

    def test_dilate_shift_needs_cyclic(self):
        prod = Group((2, 3))
        a = GroupSubset.from_elements(prod, [0, 1])
        with pytest.raises(UnsupportedGroupError):
            a.dilate_shift(2, 0, Group.cyclic(12))
        b = GroupSubset.from_elements(Group.cyclic(6), [0, 1])
        with pytest.raises(UnsupportedGroupError):
            b.dilate_shift(2, 0, prod)



class TestIntegerInput:
    """Indices, coordinates, orders and multipliers must be integers; a value
    int() would truncate is rejected, an integral float or numpy int is not."""

    def test_from_elements_rejects_fractions(self):
        g = Group.cyclic(7)
        with pytest.raises(InvalidElementError, match="not an integer"):
            GroupSubset.from_elements(g, [1.5, 2.9])
        with pytest.raises(InvalidElementError):
            GroupSubset.from_elements(g, ["3"])
        assert GroupSubset.from_elements(g, [1.0, np.int64(2), np.int8(4)]).elements() == [1, 2, 4]

    def test_group_rejects_fractional_orders(self):
        with pytest.raises(ValueError, match="not an integer"):
            Group((7.9,))
        with pytest.raises(ValueError):
            Group((2, 3.5))
        assert Group((np.int64(7),)).orders == (7,)

    def test_check_element_and_encode(self):
        g = Group((2, 3))
        with pytest.raises(InvalidElementError):
            g.check_element(2.7)
        with pytest.raises(InvalidElementError):
            g.encode((1, 1.5))
        assert g.check_element(5.0) == 5
        assert g.encode((1.0, 2)) == 5

    def test_dilate_shift_rejects_fractional_multiplier(self):
        b = GroupSubset.from_elements(Group.cyclic(7), [1, 2])
        with pytest.raises(ValueError):
            b.dilate_shift(2.5, 0, Group.cyclic(14))
        assert b.dilate_shift(2.0, 0, Group.cyclic(14)).elements() == [2, 4]


def _reference_mask(order, elems):
    mask = np.zeros(order, dtype=bool)
    for e in elems:
        mask[e] = True
    return mask


class TestLinearConversions:
    """elements(), from_elements() and negate() against one-element-at-a-time
    references, from the empty set to the full group."""

    def test_round_trip_orders(self):
        rng = random.Random(21)
        for order in (1, 8, 2**16 + 3):
            g = Group.cyclic(order)
            for size in {0, 1, min(order, 5), order // 2, order}:
                elems = rng.sample(range(order), size)
                a = GroupSubset.from_elements(g, elems + elems[: size // 3])
                assert np.array_equal(a.mask, _reference_mask(order, elems))
                assert a.card == size
                assert a.elements() == sorted(elems)
                assert GroupSubset.from_elements(g, a.elements()) == a

    def test_bad_index_reports_first_offender(self):
        for order in (8, 2**16 + 3):
            g = Group.cyclic(order)
            good = list(range(0, order, 2))
            for bad in ([order], [-1], [order + 5, -3], [-3, order + 5]):
                with pytest.raises(InvalidElementError) as err:
                    GroupSubset.from_elements(g, good + bad + [1])
                assert str(err.value) == f"index {bad[0]} outside [0, {order})"

    def test_json_checks_order_then_range(self):
        with pytest.raises(InvalidElementError) as err:
            subset_from_json_dict({"orders": [7], "elements": [1, 2**70]})
        assert str(err.value) == f"index {2**70} outside [0, 7)"
        for elems in ([2**70, 1], [5, 3, 9], [-1, -1]):
            with pytest.raises(ValueError, match="strictly increasing"):
                subset_from_json_dict({"orders": [7], "elements": elems})
        with pytest.raises(InvalidElementError, match="index -1 outside"):
            subset_from_json_dict({"orders": [7], "elements": [-1, 2, 8]})

    def test_negate_matches_group_neg(self):
        rng = random.Random(22)
        for orders in [(1,), (2,), (7,), (4096,), (65539,), (2, 3), (1, 5), (4, 1, 6),
                       (2,) * 10, (16, 16, 16), (4, 5, 7, 9), (1,) * 70 + (5,), (1,) * 70]:
            g = Group(orders)
            for size in {0, 1, min(g.order, 3), g.order // 3, g.order}:
                a = GroupSubset.from_elements(g, rng.sample(range(g.order), size))
                neg = a.negate()
                assert np.array_equal(neg.mask, _reference_mask(g.order, map(g.neg, a)))
                assert neg.negate() == a


class TestCoordinateMap:
    """negate, translate and dilate_shift are one coordinate map; each is
    checked against a one-element-at-a-time reference (Group.neg,
    Group.add, Python's (c*b + t) % m), from the empty set to the full
    group."""

    @staticmethod
    def sets(g, rng):
        yield GroupSubset.empty(g)
        yield GroupSubset.full(g)
        for size in {1, min(g.order, 3), g.order // 2}:
            yield GroupSubset.from_elements(g, rng.sample(range(g.order), size))

    def test_negate_on_twenty_factors(self):
        g = Group((2,) * 20)
        a = GroupSubset.from_elements(g, random.Random(31).sample(range(g.order), 5))
        assert np.array_equal(a.negate().mask, _reference_mask(g.order, map(g.neg, a)))
        for s in (GroupSubset.empty(g), GroupSubset.full(g)):
            assert s.negate() == s

    def test_translate_matches_group_add(self):
        rng = random.Random(32)
        for orders in [(5,), (2, 3), (4, 1, 6), (1,) * 70 + (5,), (1,)]:
            g = Group(orders)
            for a in self.sets(g, rng):
                for t in g.elements():
                    want = _reference_mask(g.order, (g.add(x, t) for x in a))
                    assert np.array_equal(a.translate(t).mask, want), (orders, t)
            with pytest.raises(InvalidElementError):
                a.translate(g.order)
            with pytest.raises(InvalidElementError):
                a.translate(0.5)

    def test_dilate_shift_matches_python(self):
        rng = random.Random(33)
        # (source order, target order): s | m, s not dividing m, s >= m, trivial.
        for s, m in [(7, 14), (7, 10), (6, 4), (5, 5), (1, 3), (4, 1)]:
            src, target = Group.cyclic(s), Group.cyclic(m)
            for a in self.sets(src, rng):
                for c in (-3, 0, 1, 2, m, m + 3, 10**30, -(10**30)):
                    for t in {0, 1 % m, m - 1}:
                        want = _reference_mask(m, ((c * b + t) % m for b in a))
                        got = a.dilate_shift(c, t, target)
                        assert got.group == target and np.array_equal(got.mask, want), (s, m, c, t)
        with pytest.raises(UnsupportedGroupError):
            GroupSubset.empty(Group((2, 3))).dilate_shift(1, 0, Group.cyclic(6))
        with pytest.raises(InvalidElementError):
            GroupSubset.empty(Group.cyclic(3)).dilate_shift(1, 6, Group.cyclic(6))

    def test_map_is_exact_past_int64(self):
        # A multiplier whose products pass 2^63 is reduced in Python ints.
        a = GroupSubset.from_elements(Group.cyclic(5), [1, 3, 4])
        for u in (2**62 + 3, 2**70 - 1, -(2**66)):
            got = a._image(Group.cyclic(7), u, (5,))
            assert got.elements() == sorted({(u * b + 5) % 7 for b in a}), u


class TestMaskStore:
    """A subset's one store is a read-only bool mask over the flat indices."""

    @staticmethod
    def builds(g, elems):
        """The same subset of g built every way there is."""
        hit = _reference_mask(g.order, elems)
        half = len(elems) // 2
        yield GroupSubset.from_elements(g, elems)
        yield GroupSubset._from_indices(g, hit)
        yield GroupSubset(g, hit.copy())
        yield GroupSubset.from_elements(g, elems[:half]) | GroupSubset.from_elements(g, elems[half:])
        yield GroupSubset.from_elements(g, elems).negate().negate()
        yield GroupSubset.from_elements(g, map(g.neg, elems)).negate()

    def test_mask_is_read_only(self):
        g = Group((3, 4))
        a = GroupSubset.from_elements(g, [1, 5])
        c = GroupSubset.from_elements(Group.cyclic(5), [0, 2])
        for s in [*self.builds(g, [1, 5]), GroupSubset.empty(g), GroupSubset.full(g),
                  a.translate(7), random_subset(3, g, 0.5), c.dilate_shift(2, 1, Group.cyclic(9))]:
            assert s.mask.dtype == np.bool_ and s.mask.shape == (s.group.order,)
            assert not s.mask.flags.writeable
            with pytest.raises(ValueError):
                s.mask[0] = True

    def test_constructor_keeps_the_array(self):
        g = Group.cyclic(4)
        hit = np.array([True, False, False, True])
        a = GroupSubset(g, hit)
        assert a.mask is hit and not hit.flags.writeable
        assert a.elements() == [0, 3] and a.card == 2 and 3 in a and 1 not in a
        # Membership takes what an index takes: a bool is 0 or 1, a float is refused.
        assert np.int64(3) in a and False in a and True not in a
        with pytest.raises(TypeError):
            3.0 in a

    def test_equal_whichever_way_built(self):
        rng = random.Random(34)
        for orders in [(1,), (7,), (2, 3), (4, 1, 6), (2,) * 8]:
            g = Group(orders)
            for size in {0, 1, g.order // 2, g.order}:
                elems = rng.sample(range(g.order), size)
                built = list(self.builds(g, elems))
                for s in built:
                    assert s == built[0] and hash(s) == hash(built[0]), (orders, elems)
                    assert s.elements() == sorted(elems)
        for seed in range(3):
            r = random_subset(seed, Group((3, 5)), 0.5)
            assert r == GroupSubset.from_elements(r.group, r.elements())
            assert hash(r) == hash(GroupSubset.from_elements(r.group, r.elements()))

    def test_unequal_groups_or_members(self):
        a = GroupSubset.from_elements(Group.cyclic(6), [1, 2])
        assert a != GroupSubset.from_elements(Group((2, 3)), [1, 2])
        assert a != GroupSubset.from_elements(Group.cyclic(6), [1, 3])
        assert a != [1, 2] and a != a.mask

    def test_wrong_mask_refused(self):
        g = Group.cyclic(3)
        for bad in (
            1 << 3,
            5,
            [True, False, True],
            np.zeros(4, dtype=bool),
            np.zeros(2, dtype=bool),
            np.zeros((1, 3), dtype=bool),
            np.array([1, 0, 1], dtype=np.uint8),
            np.array([1, 0, 1], dtype=np.int64),
            np.array([True, False, True], dtype=object),
            np.bool_(True),
        ):
            with pytest.raises(InvalidElementError):
                GroupSubset(g, bad)


class TestSetFiles:
    def test_json_round_trip(self):
        g = Group((2, 3))
        a = GroupSubset.from_elements(g, [0, 4, 5])
        doc = a.to_json_dict()
        assert doc == {"orders": [2, 3], "elements": [0, 4, 5]}
        assert subset_from_json_dict(json.loads(a.to_json())) == a

    def test_json_ignores_unknown_keys(self):
        doc = {"orders": [7], "elements": [1, 2, 4], "manifest": {"x": 1}, "note": "y"}
        a = subset_from_json_dict(doc)
        assert a.elements() == [1, 2, 4]

    def test_json_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            subset_from_json_dict({"orders": [7], "elements": [2, 2]})
        with pytest.raises(ValueError):
            subset_from_json_dict({"orders": [7], "elements": [3, 1]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"orders": [7.9], "elements": [1.5, 2.2]},
            {"orders": [7], "elements": "123"},
            {"orders": [7], "elements": [True]},
        ],
    )
    def test_json_rejects_non_integers(self, doc):
        with pytest.raises(ValueError):
            subset_from_json_dict(doc)

    def test_json_requires_keys(self):
        with pytest.raises(ValueError):
            subset_from_json_dict({"orders": [7]})
        with pytest.raises(ValueError):
            subset_from_json_dict({"elements": []})

    def test_text_round_trip(self):
        g = Group((4, 5))
        a = GroupSubset.from_elements(g, [0, 7, 19])
        assert a.to_text() == "orders 4 5\n0\n7\n19\n"
        assert subset_from_text(a.to_text()) == a

    def test_text_rejects_missing_header_and_duplicates(self):
        with pytest.raises(ValueError):
            subset_from_text("1\n2\n")
        with pytest.raises(ValueError):
            subset_from_text("orders 7\n1\n1\n")
        with pytest.raises(ValueError):
            subset_from_text("ordersx 7\n1\n")
        for text in ("orders 2_0\n3\n", "orders 7\n+3\n", "orders 7\n\u0661\n"):
            with pytest.raises(ValueError):
                subset_from_text(text)

    def test_parse_sniffs_format(self):
        assert parse_subset('{"orders": [5], "elements": [2]}').elements() == [2]
        assert parse_subset("orders 5\n2\n").elements() == [2]
        with pytest.raises(ValueError):
            parse_subset("{broken json")

    def test_read_subset(self, tmp_path):
        path = tmp_path / "set.json"
        path.write_text('{"orders": [6], "elements": [0, 3]}')
        assert read_subset(str(path)).elements() == [0, 3]

    def test_read_subset_is_strict_utf8(self, tmp_path):
        # The file is decoded as strict UTF-8 whatever the locale.
        path = tmp_path / "set.txt"
        path.write_bytes(b"orders 7\r\n1\r\n3\n")
        assert read_subset(str(path)).elements() == [1, 3]
        path.write_bytes(b"orders 7\n1\n\xff\n")
        with pytest.raises(UnicodeDecodeError):
            read_subset(str(path))
