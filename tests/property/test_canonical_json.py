"""The canonical JSON view is the stdlib encoder's output, byte for byte.

``ResultSet.to_json`` builds the document a slice of rows at a time instead of
through one ``json.dumps``; every golden file and the byte-identical-across-
worker-counts guarantee rest on the two being the same string.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.devtools.rebaseline import GOLDEN_GRIDS
from repro.experiments.results import ResultSet, _canonical_pieces

_DATA = os.path.join(os.path.dirname(__file__), os.pardir, "experiments",
                     "data")

_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x7fé漢 \U0001f600'),
                          st.characters()), max_size=6)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _text,
    st.floats(allow_nan=False),
    st.sampled_from([1e-07, 1e+22, 1e16, -0.0, 5e-324, float("inf")]),
)


def _dicts(values, max_size=3):
    # One key type per dict: the stdlib sorts the keys before it stringifies
    # them, so it cannot encode a dict that mixes them.
    return st.one_of(
        st.dictionaries(_text, values, max_size=max_size),
        st.dictionaries(st.integers(), values, max_size=max_size),
        st.dictionaries(st.floats(allow_nan=False), values, max_size=max_size),
    )


def _nested(depth):
    """JSON-able values nesting dicts, lists and tuples ``depth`` deep, empty
    containers included at every level."""
    if depth == 0:
        return _scalars
    child = _nested(depth - 1)
    return st.one_of(_scalars, st.lists(child, max_size=3),
                     st.lists(child, max_size=3).map(tuple), _dicts(child))


def _maybe_long(items):
    """Short lists, and lists long enough that the encoder walks them (a few
    drawn items repeated: drawing seventy would dominate the run time)."""
    return st.one_of(
        st.lists(items, max_size=3),
        st.builds(lambda some, length: (some * length)[:length],
                  st.lists(items, min_size=1, max_size=3),
                  st.integers(33, 70)),
    )


_records = st.builds(
    lambda identity, index, rest: {"cell": {**identity, **index}, **rest},
    st.dictionaries(_text.filter(lambda key: key != "index"), _nested(2),
                    max_size=2),
    st.one_of(st.just({}),
              st.fixed_dictionaries({"index": st.integers(0, 4)})),
    st.dictionaries(
        st.one_of(st.just("flows"),
                  _text.filter(lambda key: key not in ("cell", "wall_time_s"))),
        st.one_of(_nested(5), _maybe_long(_nested(2))), max_size=3),
)


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(-5, 2 ** 40), records=_maybe_long(_records))
def test_to_json_is_json_dumps(seed, records):
    order = sorted(range(len(records)),
                   key=lambda i: (records[i]["cell"].get("index", 0), i))
    payload = {"base_seed": seed, "cells": [records[i] for i in order]}
    assert (ResultSet(seed, records).to_json()
            == json.dumps(payload, indent=2, sort_keys=True))


@settings(max_examples=200, deadline=None)
@given(document=_dicts(_maybe_long(_dicts(_maybe_long(_nested(1))))))
def test_pieces_join_to_json_dumps_whatever_the_key_type(document):
    # Through a ResultSet the walked dicts always have a ``str`` key (the
    # payload's own, a record's "cell"); the generator itself promises the
    # stdlib's bytes for any document, int- and float-keyed dicts included.
    assert ("".join(_canonical_pieces(document))
            == json.dumps(document, indent=2, sort_keys=True))


@pytest.mark.parametrize("name", sorted(GOLDEN_GRIDS))
def test_goldens_round_trip_through_load_and_write(name, tmp_path):
    path = os.path.join(_DATA, name)
    with open(path) as handle:
        golden = handle.read()
    payload = json.loads(golden)
    loaded = ResultSet(payload["base_seed"], payload["cells"])
    assert loaded.to_json() + "\n" == golden
    rewritten = tmp_path / name
    loaded.write(str(rewritten))
    assert rewritten.read_text() == golden
