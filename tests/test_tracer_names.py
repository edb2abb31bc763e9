"""Every name the benchmark tracer wraps must exist in rackyd.

``perfbench/tracer.py`` installs its timing wrappers by looking names up in
the modules' and classes' namespaces; a deleted or renamed function would
make every traced run fail.  The tracer is loaded from its file, unedited.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod, path, _ in [*tracer.SPANS, *tracer.COUNTERS]:
        owner = importlib.import_module(f"rackyd.{mod}")
        *classes, attr = path.split(".")
        for name in classes:
            owner = vars(owner).get(name)
        if owner is None or attr not in vars(owner):
            missing.append(f"{mod}.{path}")
    assert not missing
