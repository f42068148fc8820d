import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(func) wraps func under every name that binds it in the
    loaded torusmfg modules, and on every class there that holds it as a
    method, and returns the wrapper; its `calls` attribute counts the calls
    made through any of them.  monkeypatch restores the originals."""

    def count(func):
        def counted(*args, **kwargs):
            counted.calls += 1
            return func(*args, **kwargs)

        counted.calls = 0
        owners = {}
        for name, mod in list(sys.modules.items()):
            if mod is None or name.split(".")[0] != "torusmfg":
                continue
            for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
                for attr, value in list(vars(owner).items()):
                    if value is func:
                        owners[id(owner), attr] = owner, attr
        assert owners, f"no torusmfg binding of {func.__qualname__}"
        for owner, attr in owners.values():
            monkeypatch.setattr(owner, attr, counted)
        return counted

    return count
