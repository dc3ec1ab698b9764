import dualstokes


def test_public_names_resolve():
    for name in dualstokes.__all__:
        assert hasattr(dualstokes, name), name


def test_removed_names_are_gone():
    for name in ("MODE_SAMPLE", "MODE_ENCLOSURE", "lower_sum", "upper_sum"):
        assert name not in dualstokes.__all__
        assert not hasattr(dualstokes, name)
        assert not hasattr(dualstokes.darboux, name)
