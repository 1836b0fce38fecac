"""The collector of tools/linecov.py on one small module; the suite itself is not run."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"
_spec = importlib.util.spec_from_file_location("linecov", _PATH)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

SMALL = '''def sign(x):
    """Docstrings carry no bytecode."""
    if x < 0:
        return -1
    return 1
'''


def test_collector_names_the_line_of_an_untaken_branch(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SMALL)
    spec = importlib.util.spec_from_file_location("small", path)
    small = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(small)
        return small.sign(5)

    result, hits = linecov.collect(run, [path])
    assert result == 1
    assert linecov.executable_lines(path) == {1, 3, 4, 5}
    assert linecov.never_run([path], hits) == [(path, 4)]
