import torusmfg


def test_every_public_name_resolves():
    for name in torusmfg.__all__:
        assert getattr(torusmfg, name) is not None, name
