import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs(capsys):
    # the README's API example is run as written, so an API change cannot
    # leave it stale
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["rgb"].shape == (256, 2048, 3)
    assert capsys.readouterr().out.count("\n") == 2
