// Audit fixture (waivers): the self-test waives outsideOnly(), which
// nothing in the tree uses (a valid waiver), and alreadyLive(), which
// live_user.cc calls (a stale one). It also waives goneExport(), which
// no object defines (stale too).
namespace rapid_fixture {

int outsideOnly(int x) { return x - 4; }

int alreadyLive(int x) { return x + 4; }

} // namespace rapid_fixture
