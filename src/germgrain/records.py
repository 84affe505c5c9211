"""JSON records, each kind read and written through one table of fields.

A Record maps each variant (its tag field's value; None without a tag) to
(build, fields): build(**values) makes the object, and fields are (name,
type[, default]) tuples in record order, a field without a default being
required.  A type is a function (value, path) -> value, or another Record.
Reading refuses unknown, missing and mistyped fields; every ValueError
starts with the field path (grains.radius.value), a constructor's with its
record's.  Writing emits every field from the same table: round trips are exact.
"""

import sys


def _type(what, ok, cast=lambda value, path: value):
    def read(value, path):
        if not ok(value):
            raise ValueError(f"{path}: expected {what}, got {value!r}")
        return cast(value, path)
    return read


def list_of(item, what, length=None):
    """The type of a JSON list of items (of `length` items if given), read as a tuple."""
    return _type(what, lambda v: isinstance(v, list) and length in (None, len(v)),
                 lambda v, path: tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v)))


# A bool is an int to Python, but never a number in a record.
NUMBER = _type("a finite number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max, lambda v, path: float(v))
INTEGER = _type("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
BOOLEAN = _type("true or false", lambda v: isinstance(v, bool))
POINT = list_of(NUMBER, "a pair of numbers", 2)


class Record:
    """One record kind.  kind_of(obj) names an object's variant (by default
    the one its class builds); values_of(obj) gives its field values (by
    default its attributes of the fields' names); check(obj), if given,
    refuses a built object by a ValueError, like its constructor."""

    def __init__(self, variants, tag=None, kind_of=None, values_of=None, check=None):
        self.variants, self.tag, self.kind_of, self.values_of = variants, tag, kind_of, values_of
        self.check = check

    def __call__(self, rec, path=""):
        def at(name):
            return f"{path}.{name}" if path else name
        if not isinstance(rec, dict):
            raise ValueError(f"{path or 'config'}: expected a JSON object, got {rec!r}")
        kind = rec.get(self.tag)
        if kind not in tuple(self.variants):  # a tuple: a JSON list is unhashable
            raise ValueError(f"{at(self.tag)}: " + ("missing" if self.tag not in rec else
                             f"expected one of {', '.join(self.variants)}, got {kind!r}"))
        build, fields = self.variants[kind]
        unknown = set(rec) - {self.tag, *(name for name, *_ in fields)}
        if unknown:
            raise ValueError(f"{at(min(unknown))}: unknown field")
        values = {}
        for name, read, *default in fields:
            if name not in rec and not default:
                raise ValueError(f"{at(name)}: missing")
            values[name] = read(rec[name], at(name)) if name in rec else default[0]
        try:
            obj = build(**values)
            if self.check:
                self.check(obj)
            return obj
        except ValueError as exc:
            raise (type(exc)(f"{path}: {exc}") if path else exc) from None

    def write(self, obj) -> dict:
        kind = (self.kind_of(obj) if self.kind_of else
                next(k for k, (build, _) in self.variants.items() if build is type(obj)))
        fields = self.variants[kind][1]
        values = self.values_of(obj) if self.values_of else [getattr(obj, f[0]) for f in fields]
        rec = {} if self.tag is None else {self.tag: kind}
        for (name, type_, *_), value in zip(fields, values):
            rec[name] = type_.write(value) if isinstance(type_, Record) else _plain(value)
        return rec


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value
