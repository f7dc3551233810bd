"""The per-item records are named tuples with the fields, reprs and immutability
of the frozen dataclasses they replace, and never share a shape with the plain
tuples they meet: deliver's keys, recipe parts and slots."""

import pytest

from rebalance import (
    Broadcast,
    MergeRecipe,
    StoredPiece,
    SubsegmentLabel,
    build_cyclic_database,
    build_merge_recipes,
    default_params,
    deliver,
    make_split_plan,
)
from rebalance.addition import make_addition_plan
from rebalance.bus import encode
from rebalance.removal_schemes import removal_slots

LABEL = SubsegmentLabel(4, (1, 2), 0, 7)

# (record, fields in dataclass order, the dataclass repr, one field and a new value)
RECORDS = [
    (
        StoredPiece(3, 5),
        ("n_atoms", "bits"),
        "StoredPiece(n_atoms=3, bits=5)",
        ("bits", 6),
    ),
    (
        LABEL,
        ("base", "superscript", "atom_start", "atom_stop"),
        "SubsegmentLabel(base=4, superscript=(1, 2), atom_start=0, atom_stop=7)",
        ("superscript", (1, 3)),
    ),
    (
        MergeRecipe(2, (2, 3, 4), ((5, 0, 7), (6, 7, 9))),
        ("target", "holders", "parts"),
        "MergeRecipe(target=2, holders=(2, 3, 4), parts=((5, 0, 7), (6, 7, 9)))",
        ("parts", ((5, 0, 9),)),
    ),
    (
        Broadcast(1, "coded", (LABEL,), 7, 93),
        ("sender", "kind", "operands", "payload_atoms", "payload"),
        "Broadcast(sender=1, kind='coded', operands=(SubsegmentLabel(base=4, "
        "superscript=(1, 2), atom_start=0, atom_stop=7),), payload_atoms=7, payload=93)",
        ("payload", 92),
    ),
]


@pytest.mark.parametrize(
    "record, fields, text, change", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_records_are_named_tuples_with_the_dataclass_contract(record, fields, text, change):
    assert isinstance(record, tuple)
    assert type(record)._fields == fields
    assert repr(record) == text
    name, value = change
    old = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    changed = record._replace(**{name: value})
    assert type(changed) is type(record) and changed is not record
    assert getattr(changed, name) == value and getattr(record, name) == old
    assert [getattr(changed, f) for f in fields if f != name] == [
        getattr(record, f) for f in fields if f != name
    ]


def test_a_stored_piece_equals_and_hashes_as_its_size_and_payload():
    # the merge keys walked replicas by the piece itself on exactly this
    piece = StoredPiece(3, 5)
    assert piece == (3, 5) and hash(piece) == hash((3, 5))
    assert piece != StoredPiece(3, 4) and piece != StoredPiece(2, 5)


def is_range(key):
    return type(key) is tuple and len(key) == 3 and all(type(x) is int for x in key)


@pytest.mark.parametrize("k", range(4, 11))
def test_labels_ranges_and_slots_never_share_a_shape(k):
    for r in range(3, k):
        params = default_params(k, r)
        db = build_cyclic_database(params, seed=k * r)
        for removed in (1, k):
            plan = make_split_plan(params, removed)
            for label in plan.all_pieces():
                assert label != (label.base, label.atom_start, label.atom_stop)
            for recipe in build_merge_recipes(params, plan):
                # a recipe's second field is a tuple, so it never equals a range
                assert type(recipe.holders) is tuple, recipe
                assert all(is_range(part) for part in recipe.parts), recipe
            for scheme in ("scheme1", "scheme2", "uncoded"):
                slots = removal_slots(plan, scheme)
                log = encode(db, slots)
                for b, slot in zip(log.broadcasts, slots, strict=True):
                    assert b != slot and tuple(b[:4]) == slot
                assert all(is_range(key) for key in deliver(db, log, plan)), (k, r, scheme)
    for r in range(2, k):
        params = default_params(k, r)
        db = build_cyclic_database(params, seed=k * r)
        plan = make_addition_plan(params)
        for recipe in plan.recipes:
            assert type(recipe.holders) is tuple, recipe
            assert all(is_range(part) for part in recipe.parts), recipe
        log = encode(db, plan.slots)
        assert all(b != slot for b, slot in zip(log.broadcasts, plan.slots, strict=True))
        assert all(is_range(key) for key in deliver(db, log, plan)), (k, r)
