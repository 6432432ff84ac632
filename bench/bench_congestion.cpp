// E4 (paper §2.2/§6.3, rate-based congestion control).
//
// "If the arrival rate to this port exceeds the output rate, the router
// signals to those upstream routers feeding this queue to reduce their
// rate ... As a feedback system, this rate control approach necessarily
// oscillates.  The degree of oscillation and its resulting effect on the
// utilization of the congested output link depends on the amount of
// output buffer space, the propagation delay to the feeding routers and
// the variation in traffic going to the output queue."
//
// The scenarios and the table live in paper_results.cpp, which
// tests/paper_results_test.cpp links too.
#include <cstdio>

#include "paper_results.hpp"

int main() {
  std::fputs(srp::bench::render_e4(srp::bench::run_e4()).c_str(), stdout);
  return 0;
}
