// Lint fixture: must trip the one-event-engine check (and only it).
// A private event heap in model code is a second event engine beside
// DesDomain, with its own ordering rules and none of its tests.
#include <algorithm>
#include <queue>
#include <vector>

namespace rapid {

int
fixtureEarliestTick(std::vector<int> &ticks)
{
    std::priority_queue<int> pending(ticks.begin(), ticks.end());
    std::make_heap(ticks.begin(), ticks.end());
    return pending.top();
}

} // namespace rapid
