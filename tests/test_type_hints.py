"""Every annotation in the library resolves: ``typing.get_type_hints``
succeeds on each function, class and method a netsup module defines, so no
annotation names a type its module forgot to import."""

import importlib
import inspect
import pkgutil
import typing
from functools import cached_property

import netsup


def annotated():
    """(qualified name, object) for each function, class, method and
    property getter defined in a netsup module."""
    for info in pkgutil.iter_modules(netsup.__path__):
        module = importlib.import_module(f"netsup.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, value in vars(obj).items():
                    if isinstance(value, (classmethod, staticmethod)):
                        value = value.__func__
                    elif isinstance(value, property):
                        value = value.fget
                    elif isinstance(value, cached_property):
                        value = value.func
                    if inspect.isfunction(value):
                        yield f"{module.__name__}.{name}.{attr}", value


def test_every_annotation_resolves():
    found = dict(annotated())
    assert "netsup.synthesis.solve_control_problem" in found
    assert "netsup.comm.CommAutomaton.num_states" in found  # a property getter
    broken = []
    for qualname, obj in found.items():
        try:
            typing.get_type_hints(obj)
        except Exception as error:
            broken.append(f"{qualname}: {error!r}")
    assert broken == []
