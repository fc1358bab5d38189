import json
import random

import numpy as np
import pytest

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


def _reference_bits(elems):
    bits = 0
    for e in elems:
        bits |= 1 << e
    return bits


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
                assert a.bits == _reference_bits(elems)
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
                       (2,) * 10, (16, 16, 16), (4, 5, 7, 9)]:
            g = Group(orders)
            for size in {0, 1, min(g.order, 3), g.order // 3, g.order}:
                a = GroupSubset.from_elements(g, rng.sample(range(g.order), size))
                neg = a.negate()
                assert neg.bits == _reference_bits(g.neg(x) for x in a.elements())
                assert neg.negate() == a


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
