"""The text of ``json.dumps(value, indent=2, sort_keys=True)``, written a row
at a time.

With ``indent`` set, :mod:`json` encodes in pure Python and hands the file
one small chunk per token.  :func:`dump` writes the same bytes from the C
pieces instead: ``int.__repr__`` for ints,
``json.encoder.encode_basestring_ascii`` for strings, ``true``, ``false``
and ``null`` for bools and None, and one ``str.join`` for each dict or list
whose entries are all such scalars (a row).  Any other value -- a float, a
subclass, a dict with a key that is not a string -- is encoded by
``json.dumps`` itself, its lines indented to where it sits, so the text is
exact by construction.

A row is the largest string built: a list of rows, or of dicts, is written
one entry at a time, so memory does not grow with the artifact.  An iterator
(a generator, say) is written as the list of its items, each taken when it is
written, so the caller need not hold the list at all.  Unlike
``json``, :func:`dump` does not look for reference cycles; the values it is
given are trees.
"""

import json
from json.encoder import encode_basestring_ascii as _string

_SCALAR = {
    str: _string,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_STR = frozenset((str,))


def _row(items):
    """The encoded ``items`` if every one is a scalar of :data:`_SCALAR`'s
    types (exactly those types), else None."""
    kinds = set(map(type, items))
    if len(kinds) == 1:
        encode = _SCALAR.get(kinds.pop())
        return None if encode is None else map(encode, items)
    if kinds.issubset(_SCALAR):
        return [_SCALAR[type(item)](item) for item in items]
    return None


def _write(write, value, nl):
    """Write ``value``, which starts on a line that ``nl`` (a newline and the
    indent) began."""
    kind = type(value)
    if kind in _SCALAR:
        write(_SCALAR[kind](value))
        return
    inner = nl + "  "
    if kind is list or kind is tuple:
        row = _row(value) if value else None
        if row is not None:
            write("[" + inner + ("," + inner).join(row) + nl + "]")
            return
    if kind is list or kind is tuple or hasattr(value, "__next__"):  # an iterator is a list
        sep = "["
        for item in value:
            write(sep + inner)
            _write(write, item, inner)
            sep = ","
        write("[]" if sep == "[" else nl + "]")
        return
    if kind is dict and len(value) == 1:  # most often a sparse vector's one entry
        (key, item), = value.items()
        if type(key) is str and type(item) in _SCALAR:
            write("{" + inner + _string(key) + ": " + _SCALAR[type(item)](item) + nl + "}")
            return
    if kind is dict and _STR.issuperset(map(type, value)):
        if not value:
            write("{}")
            return
        keys = sorted(value)
        row = _row([value[key] for key in keys])
        if row is not None:
            write("{" + inner + ("," + inner).join(
                [_string(key) + ": " + text for key, text in zip(keys, row)]) + nl + "}")
            return
        sep = "{"
        for key in keys:
            write(sep + inner + _string(key) + ": ")
            _write(write, value[key], inner)
            sep = ","
        write(nl + "}")
        return
    write(json.dumps(value, indent=2, sort_keys=True).replace("\n", nl))


def dump(value, fh):
    """Write ``json.dumps(value, indent=2, sort_keys=True)`` to the text file
    ``fh``."""
    _write(fh.write, value, "\n")
