"""The package namespace re-exports exactly the public names of its modules."""

import causalcov
from causalcov import bounds, config, errors, estimator, linalg, montecarlo, process


def test_package_all_is_union_of_module_alls():
    modules = (linalg, process, bounds, estimator, montecarlo, config)
    union = set().union(*(m.__all__ for m in modules))
    # errors declares no __all__: its exception classes are exported as a whole
    exceptions = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    exported = set(causalcov.__all__)
    assert len(exported) == len(causalcov.__all__)
    assert exported - {"__version__"} - exceptions == union
    assert exceptions <= exported
    for name in exported:
        assert hasattr(causalcov, name), name
