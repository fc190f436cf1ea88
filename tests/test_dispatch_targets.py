"""tools/dispatch_targets.py: the list it prints is the one --none checks
to be empty, and an unknown argument is a usage error."""

import importlib.util
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent / "tools"
          / "dispatch_targets.py")


def _module():
    spec = importlib.util.spec_from_file_location("dispatch_targets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_list_and_check_agree(capsys):
    script = _module()
    targets = script.found()
    assert script.main([]) == 0
    assert capsys.readouterr().out == " ".join(targets) + "\n"
    assert script.main(["--none"]) == (1 if targets else 0)
    assert str(targets) in capsys.readouterr().out
    assert script.main(["--all"]) == 2
