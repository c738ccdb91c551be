import types

import rlwindow


def test_all_names_exactly_the_reexported_objects():
    # Every name in __all__ is bound and none is a submodule: a submodule
    # there would rebind names such as `repair` and `window` on
    # `from rlwindow import *`.
    public = {name for name, value in vars(rlwindow).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(rlwindow.__all__) == public
