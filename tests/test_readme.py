"""The README's library example runs as documented, and its move table
lists the moves the ledger format has, with the keys each encoder writes."""

import dataclasses
import json
import re
from pathlib import Path

from rhombidome import files

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "'budget': 156" in capsys.readouterr().out


def test_readme_move_table_matches_move_table():
    # rows read "| `type`[, `type`] | `key` what, `key` ... |" under the header
    # "| move | fields |"; a row's backquoted words are its types, then its keys
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| move | fields |"):].split("\n\n")[0].splitlines()[2:]
    documented = {}
    for row in table:
        types, keys = row.strip("|").split("|")
        for kind in re.findall(r"`(\w+)`", types):
            documented[kind] = re.findall(r"`(\w+)`", keys)
    # one move of each class, field i holding a value of its type made from i,
    # and the keys its encoder writes besides ``type``; the encoder sorts
    # them, the table lists them in the class's field order, so each key is
    # put back at the field whose value it holds
    written = {}
    for cls, encode in files._TO_JSON.items():
        values = [{"int": i, "str": f"s{i}", "list[int]": [i], "list[float]": [float(i)] * 3}[f.type]
                  for i, f in enumerate(dataclasses.fields(cls))]
        obj = json.loads(encode(cls(*values)))
        kind = obj.pop("type")
        written[kind] = sorted(obj, key=lambda key: values.index(obj[key]))
    assert documented == written
