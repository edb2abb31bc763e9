"""The artifact writer against ``json.dumps(indent=2, sort_keys=True)``.

``rackyd.cli_io._write_json`` writes through :mod:`rackyd.jsonwrite`, which
encodes scalars and rows of scalars itself and hands anything else to
``json.dumps``; every file it writes must hold the bytes ``json`` would.
"""

import io
import json

from hypothesis import example, given, settings, strategies as st

from rackyd import jsonwrite
from rackyd.cli_io import _write_json

# non-ASCII text, escapes, quotes and control characters, lone surrogates too
TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF), max_size=8)
SCALARS = (TEXT | st.integers() | st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
           | st.booleans() | st.none())
# a float, or a dict with an int or a float key, is encoded by json.dumps itself
FALLBACK = st.floats() | st.dictionaries(st.integers() | st.floats(allow_nan=False),
                                         SCALARS, max_size=3)


def _containers(children):
    return (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(TEXT, children, max_size=5))


VALUES = st.recursive(SCALARS | FALLBACK, _containers, max_leaves=40)


def _expected(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example({"rows": [[0, 1], [1, 0]], "empty": [[], {}, ()], "one": {"7": "-1/2"}})
@example({"a": [1, 1.5, {"b": {2: "x", 3.5: None}}], "é ": "\x00\"\\\n"})
@example([True, False, None, -(10 ** 30), "", {"": {}}])
def test_the_written_file_is_what_json_dumps_writes(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("artifact") / "out.json"
    _write_json(path, value)
    assert path.read_bytes() == _expected(value).encode("ascii")


def test_a_list_of_rows_is_written_a_row_at_a_time():
    # the largest string handed to the file is one row, not the whole value
    table = [list(range(k, k + 50)) for k in range(40)]
    writes = []

    class File:
        def write(self, text):
            writes.append(text)

    jsonwrite.dump({"mul": table}, File())
    assert "".join(writes) == json.dumps({"mul": table}, indent=2, sort_keys=True)
    assert max(map(len, writes)) == len(json.dumps(table[-1], indent=2).replace("\n", "\n    "))
    assert len(writes) <= 2 * len(table) + 4  # a row and its separator each, and the ends


def test_a_scalar_at_the_top_is_written_as_json_writes_it():
    for value in (0, -3, "x", None, True, 2.5, [], {}):
        out = io.StringIO()
        jsonwrite.dump(value, out)
        assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True)


def _iterators(value):
    """``value`` with every list, at every depth, replaced by an iterator over it."""
    if type(value) is list:
        return iter([_iterators(item) for item in value])
    if type(value) is dict:
        return {key: _iterators(item) for key, item in value.items()}
    return value


@settings(max_examples=200, deadline=None)
@given(st.lists(VALUES, max_size=5))
@example([])
@example([[], [[]], {"a": []}, [1, "x"]])
def test_an_iterator_is_written_as_its_list(value):
    for given_value in (iter(value), _iterators(value)):
        out = io.StringIO()
        jsonwrite.dump(given_value, out)
        assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True)


def test_an_iterator_is_read_one_entry_at_a_time():
    # each row is taken from the iterator only after the one before it is written
    taken, written = [], []

    class File:
        def write(self, text):
            written.append((len(taken), text))

    def rows():
        for k in range(3):
            taken.append(k)
            yield [k, k + 1]

    jsonwrite.dump({"rows": rows()}, File())
    rows_written = [n for n, text in written if text.startswith("[") and text.endswith("]")]
    assert rows_written == [1, 2, 3]
    assert "".join(text for _, text in written) == json.dumps(
        {"rows": [[0, 1], [1, 2], [2, 3]]}, indent=2, sort_keys=True)
