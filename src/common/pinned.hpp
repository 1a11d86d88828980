// Lifetime pin for gmmcs-lint's lifetime pass (DESIGN.md §14).
//
// `class GMMCS_PINNED("why") Foo { ... };` declares that every Foo is
// constructed before the event loop starts and destroyed only after it
// drains — sim hosts, brokers, protocol servers that are immortal for a
// run. Callables deferred into the loop may therefore capture a raw
// pointer/reference/`this` of a pinned class without escaping its
// lifetime. The reason string is mandatory (the linter rejects an empty
// one) and should say *why* the instance outlives all deferred work.
// Compiles away entirely; it exists for the analyzer and the reader.
#pragma once

#define GMMCS_PINNED(reason)
