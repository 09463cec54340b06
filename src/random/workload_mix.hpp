// Workload-mix sampling: one named knob set per instance family, drawn from
// the generators in this directory.
//
// The scenario simulator (engine/sim) describes traffic as phases of "draw
// instances from family F at size n" — this module is the hook it samples
// through, so the set of families a scenario can name lives next to the
// generators themselves rather than inside the simulator. `bisched_cli gen`
// samples through it too, so gen and a scenario phase that name the same
// family + knobs draw the same way and refuse the same out-of-range knobs;
// given one Rng stream the draw is deterministic bit-for-bit, which is what
// makes a generated trace replayable byte-identically.
#pragma once

#include <cstdint>
#include <string>

#include "util/prng.hpp"

namespace bisched {

// One instance-family draw specification. `family` selects the generator;
// the remaining knobs apply per family (unused ones are ignored):
//
//   gilbert   G_{n,n,a/n} conflicts, unit jobs, `machines` uniform speeds
//             in [1, smax]               (knobs: n, machines, a, smax)
//   crown     crown S_n^0 conflicts, weights uniform in [1, wmax],
//             `machines` speed-2 machines (knobs: n, machines, wmax)
//   r2        2 unrelated machines, times uniform in [0, tmax], random
//             bipartite conflicts with `edges` edges (0 = n/2)
//             (knobs: n, tmax, edges)
struct MixSpec {
  std::string family = "gilbert";
  int n = 12;
  int machines = 3;
  double a = 2.0;           // gilbert edge density (p = a/n)
  std::int64_t smax = 8;    // gilbert max speed
  std::int64_t wmax = 10;   // crown max weight
  std::int64_t tmax = 50;   // r2 max processing time
  std::int64_t edges = 0;   // r2 conflict edges; 0 = n/2
};

// True iff `family` names a generator this module can sample.
bool mix_family_known(const std::string& family);

// Draws one instance from the spec and returns it as native instance text
// (io/format write_instance — the same bytes `bisched_cli gen` would print),
// ready to be embedded in a trace or sent as an inline serve frame.
// Empty + *error on an unknown family or out-of-range knobs.
std::string sample_mix_instance(const MixSpec& spec, Rng& rng, std::string* error);

}  // namespace bisched
