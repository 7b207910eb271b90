"""The README's Python examples run as written, and its config schema is the code's."""

import re
from pathlib import Path

from causalcov import config, montecarlo

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no Python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out


def test_readme_config_schema_matches_code():
    section = README.read_text().split("## Configuration", 1)[1]
    schema = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    top_keys = set(re.findall(r'^  "(\w+)":', schema, flags=re.M))
    assert top_keys == config._TOP_KEYS
    grid_line = re.search(r'^  "grid": (\{.*\}),', schema, flags=re.M).group(1)
    assert set(re.findall(r'"(\w+)":', grid_line)) == config._GRID_KEYS


def test_readme_event_table_matches_code():
    # each row: `event` | statistic | its parameters, then any remarks in parentheses
    section = README.read_text().split("Events and their parameters:", 1)[1]
    rows = re.findall(r"^\| `([\w-]+)` *\|[^|]*\|([^|]*)\|$", section, flags=re.M)
    table = {event: set(re.findall(r"`(\w+)`", re.sub(r"\(.*\)", "", cell))) for event, cell in rows}
    assert len(table) == len(rows)
    assert table == montecarlo.EVENT_PARAMS
