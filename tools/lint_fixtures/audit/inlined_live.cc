// Audit fixture: live_user.cc, a bench object, calls liveEntry() and
// liveConfig(). Nothing relocates to the other exports, yet three are
// live: branchTarget() through a call the assembler resolved in place,
// tileCount() inlined into liveEntry(), and baseConfig() inlined into
// liveConfig() and folded to constants there. halfStep() is inlined
// only into testOnlyStep(), which only the test object
// dead_export_user.cc calls: both are test-only, and so is Meter's
// constructor, which DWARF describes through an abstract (C4) entry.
namespace rapid_fixture {

__attribute__((noinline)) int branchTarget(int x) { return x * 3 + 7; }

int tileCount(int x) { return x * 2; }

int liveEntry(int x) { return tileCount(x) + branchTarget(x); }

int halfStep(int x) { return x / 2 + 1; }

int testOnlyStep(int x) { return halfStep(x) * 3; }

struct Meter
{
    explicit Meter(int v);
    int v_;
};

Meter::Meter(int v) : v_(v * 2) {}

struct Config
{
    int rows;
    int cols;
    double ghz;
};

Config
baseConfig(double ghz)
{
    Config c;
    c.rows = 8;
    c.cols = 64;
    c.ghz = ghz;
    return c;
}

Config
liveConfig()
{
    Config c = baseConfig(1.5);
    c.cols = 32;
    return c;
}

} // namespace rapid_fixture
