"""REPRO801 fixture: getattr() on non-engine objects, engine surface reads."""


def attachments(maintainer):
    # the maintainer is not an engine: its optional hooks may be probed
    return getattr(maintainer, "core_attachments", None)


def shards_of(engine):
    return engine.num_shards  # the declared surface, no probe


def engines_named(engines, name):
    return getattr(engines, name)  # a container of engines, not an engine
