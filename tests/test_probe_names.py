"""Every name the benchmark's probes wrap exists where the probes look for it.

perfbench/probes.py wraps a method by reading it from its class's own
__dict__ and a module-level function by its name in the layer module, so a
renamed or inherited method makes a traced benchmark run fail with a
KeyError.  This test reads the probe tables from the source, without
importing the benchmark, and checks them against the engine.
"""

import ast
import importlib
import inspect
from pathlib import Path

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def probe_tables():
    tables = {}
    for node in ast.parse(PROBES.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPAN_TABLE", "ACTION_METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables["SPAN_TABLE"], tables["ACTION_METHODS"]


def test_every_wrapped_name_is_defined_where_the_probes_read_it():
    span_table, action_methods = probe_tables()
    owners = {}
    missing = []
    for layer, table in span_table.items():
        module = importlib.import_module(f"dglift.{layer}")
        for owner, attrs in table.items():
            for attr in attrs:
                if owner is None:
                    fn = getattr(module, attr, None)
                    if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                        missing.append((layer, attr))
                else:
                    cls = getattr(module, owner)
                    owners[owner] = cls
                    if attr not in vars(cls):
                        missing.append((layer, owner, attr))
    for owner, attr in sorted(action_methods):
        if attr not in vars(owners[owner]):
            missing.append((owner, attr))
    assert not missing
