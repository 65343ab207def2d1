"""The table, CSV and JSON renderers cell by cell: a reference for cli's chunked ones.

Each column is turned into a list of Python objects, table and CSV rows
are zipped from lists of formatted (and, in a table, padded) cells and
JSON rows are dicts that json.dumps encodes, so the code shares nothing
with cli's row templates but the OutputRecord it reads.
"""

import json

import numpy as np


def _cells(values):
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def _format_cells(values, float_format):
    return [
        "" if v is None else format(v, float_format) if isinstance(v, float) else str(v)
        for v in _cells(values)
    ]


KEY_COLUMNS = ("t", "t0", "p", "name")


def render_table(record):
    columns = []
    for key, values in record.columns.items():
        cells = [key, *_format_cells(values, "g" if key in KEY_COLUMNS else ".4f")]
        width = max(map(len, cells))
        columns.append([c.rjust(width) for c in cells])
    return "\n".join(map("  ".join, zip(*columns))) + "\n"


def render_csv(record):
    lines = ["# " + json.dumps(record.metadata(), sort_keys=True), ",".join(record.columns)]
    lines += map(",".join, zip(*(_format_cells(v, ".17g") for v in record.columns.values())))
    return "\n".join(lines) + "\n"


def render_json(record):
    doc = record.metadata()
    keys = list(record.columns)
    doc["rows"] = [dict(zip(keys, row)) for row in zip(*map(_cells, record.columns.values()))]
    return json.dumps(doc) + "\n"
