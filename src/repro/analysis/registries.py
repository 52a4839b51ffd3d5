"""Rule ``registry-consistency``: registries stay importable and exposed.

Every pluggable layer resolves by registry name -- embedding systems,
execution backends, serving engines, admission controllers, SLO
policies, placement policies.  A registry entry that cannot be built,
has no documentation, or is missing from the CLI ``choices`` is a
latent runtime failure (or an invisible feature): this rule audits the
registries against themselves and against the ``python -m repro``
argument parser.

Checks per registry entry:

* **importable/buildable** -- the registered factory resolves to a real
  object (engines are instantiated; classes are inspected as-is);
* **docstringed** -- the implementation (or its registry description)
  carries documentation;
* **CLI-exposed** -- for registries with a CLI flag, the flag's
  ``choices`` equal the registry's names exactly, in both directions
  (systems and SLO policies have no fixed choices list: ``--system`` is
  free-form by design and SLO policies are resolved from numbers).

Unlike the other rules this one runs once per lint (a *project* rule)
and only when the linted set contains the real ``repro`` package --
fixture trees never trigger it.  Findings anchor at the offending
definition via :mod:`inspect`.
"""

import argparse
import inspect
from pathlib import Path

from repro.analysis.linter import Finding, Rule, register_rule


def _anchor(obj, fallback_module):
    """Best-effort ``(path, line)`` of an object's definition."""
    try:
        path = inspect.getsourcefile(obj)
        line = inspect.getsourcelines(obj)[1]
        if path is not None:
            return path, line
    except (TypeError, OSError):
        pass
    return getattr(fallback_module, "__file__", "<unknown>"), 1


def _has_doc(obj):
    doc = inspect.getdoc(obj)
    return bool(doc and doc.strip())


def _serve_choices():
    """The ``serve`` subparser's option ``choices`` by flag name."""
    from repro.__main__ import build_parser

    parser = build_parser()
    sub_action = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    serve = sub_action.choices["serve"]
    return {action.option_strings[0]: action.choices
            for action in serve._actions
            if action.option_strings and action.choices is not None}


@register_rule
class RegistryConsistencyRule(Rule):
    name = "registry-consistency"
    description = ("registry entries must be importable, documented, "
                   "and mirrored by the CLI choices")

    def check_project(self, modules):
        import repro.systems.registry as systems_registry

        sentinel = Path(systems_registry.__file__).resolve()
        if not any(module.path.resolve() == sentinel
                   for module in modules):
            return
        yield from self._check_systems()
        yield from self._check_named_registries()

    # ------------------------------------------------------------------ #
    def _check_systems(self):
        import repro.systems.adapters as adapters
        from repro.systems import available_systems, system_description
        from repro.systems.registry import _REGISTRY

        for name in available_systems():
            spec = _REGISTRY[name]
            path, line = _anchor(spec.factory, adapters)
            if not callable(spec.factory):
                yield Finding(self.name, path, line,
                              "system %r registered a non-callable "
                              "factory" % name)
            if not (system_description(name) or "").strip() \
                    and not _has_doc(spec.factory):
                yield Finding(self.name, path, line,
                              "system %r has neither a registry "
                              "description nor a factory docstring"
                              % name)

    def _check_named_registries(self):
        import repro.core.backend as backend_mod
        import repro.serving.admission as admission_mod
        import repro.serving.engine as engine_mod
        import repro.serving.events as events_mod  # registers "event*"
        import repro.serving.sharding as sharding_mod
        import repro.serving.slo as slo_mod

        _ = events_mod
        sharder = sharding_mod.ReplicatedTableSharder
        choices = _serve_choices()
        registries = (
            ("backend", backend_mod.BACKENDS, backend_mod,
             "--backend", True),
            ("serving engine", engine_mod.ENGINES, engine_mod,
             "--engine", True),
            ("admission controller",
             admission_mod.ADMISSION_CONTROLLERS, admission_mod,
             "--admission", True),
            ("SLO policy", slo_mod.SLO_POLICIES, slo_mod, None, False),
            # Placement policies are names ReplicatedTableSharder
            # dispatches on, documented by the class itself.
            ("placement policy",
             dict.fromkeys(sharder.POLICIES, sharder), sharding_mod,
             "--shard-policy", False),
        )
        for kind, registry, module, flag, instantiate in registries:
            for name in sorted(registry):
                factory = registry[name]
                target = factory
                if instantiate and not inspect.isclass(factory) \
                        and callable(factory):
                    # Zero-argument factories (e.g. the event-edf
                    # lambda): the built instance is the entry.
                    try:
                        target = type(factory())
                    except Exception as error:  # repro-lint: allow-broad-except-audit (a factory may raise anything; the failure itself is the finding)
                        path, line = _anchor(factory, module)
                        yield Finding(
                            self.name, path, line,
                            "%s %r cannot be built: %s" % (kind, name,
                                                           error))
                        continue
                path, line = _anchor(target, module)
                if not _has_doc(target):
                    yield Finding(
                        self.name, path, line,
                        "%s %r (%s) has no docstring -- registry "
                        "entries are the discoverable API surface"
                        % (kind, name, getattr(target, "__name__",
                                               target)))
            if flag is None:
                continue
            cli = choices.get(flag)
            if cli is None:
                path = module.__file__
                yield Finding(
                    self.name, path, 1,
                    "CLI flag %s declares no choices, so the %s "
                    "registry is not mirrored by the parser"
                    % (flag, kind))
                continue
            registry_names = set(registry)
            cli_names = set(cli)
            for missing in sorted(registry_names - cli_names):
                path, line = _anchor(registry[missing], module)
                yield Finding(
                    self.name, path, line,
                    "%s %r is registered but missing from the CLI "
                    "%s choices" % (kind, missing, flag))
            for extra in sorted(cli_names - registry_names):
                from repro import __main__ as cli_mod

                yield Finding(
                    self.name, cli_mod.__file__, 1,
                    "CLI %s choice %r names no registered %s"
                    % (flag, extra, kind))
