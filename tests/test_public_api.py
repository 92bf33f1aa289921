import inspect

import changekit


def test_every_exported_name_resolves():
    missing = [name for name in changekit.__all__ if not hasattr(changekit, name)]
    assert missing == []
    assert len(set(changekit.__all__)) == len(changekit.__all__)


def test_every_public_class_and_function_is_exported():
    public = {
        name
        for name, obj in vars(changekit).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert sorted(public - set(changekit.__all__)) == []
