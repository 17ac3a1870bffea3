import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second example reuses the first one's rng
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["release"].record["method"] == "EVEN_FLATTEN"
