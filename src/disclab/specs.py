"""The one grammar of every spec string: ``name`` or ``name:key=value,...``."""

from __future__ import annotations


def parse_spec(spec: str, families: dict) -> tuple[str, dict]:
    """Family name and parameters of ``spec``.

    ``families`` maps each family name to its schema ``{key: (convert,
    default)}``; keys left out take their defaults.  A schema that is a
    single converter instead takes the whole text after the colon as a raw
    payload (``poly:1,0.5``, ``table:<path>``), returned as ``{"payload":
    convert(text)}``.  Raises ``ValueError`` with one line for an unknown
    name, an unknown or repeated key, a token without ``=``, or a value that
    its converter rejects.
    """
    name, _, rest = spec.partition(":")
    if name not in families:
        raise ValueError(f"unknown spec {name!r} in {spec!r}; expected one of {', '.join(families)}")
    schema = families[name]
    if not isinstance(schema, dict):
        return name, {"payload": schema(rest)}
    given = {}
    for token in rest.split(",") if rest else ():
        key, eq, value = token.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"spec {spec!r}: expected key=value, got {token!r}")
        if key not in schema:
            known = ", ".join(schema) or "none"
            raise ValueError(f"spec {spec!r}: unknown key {key!r} for {name} (keys: {known})")
        if key in given:
            raise ValueError(f"spec {spec!r}: repeated key {key!r}")
        try:
            given[key] = schema[key][0](value.strip())
        except ValueError as exc:
            raise ValueError(f"{exc} (for {key} in spec {spec!r})") from None
    return name, {key: given.get(key, default) for key, (_, default) in schema.items()}


def checked(convert, accept, requirement: str):
    """Converter for a schema: ``convert`` the text, then require ``accept``
    of the value; either failing raises ``ValueError("<requirement>, got
    <text>")``.  This is where range checks live."""

    def run(text):
        try:
            value = convert(text)
            ok = accept(value)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"{requirement}, got {text!r}")
        return value

    return run
