from hypothesis import settings

# No per-example deadline: a solve's first call pays for imports and
# caches. A failing example prints a blob that @reproduce_failure replays.
settings.register_profile("doublephase", deadline=None, print_blob=True)
settings.load_profile("doublephase")
