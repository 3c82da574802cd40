// Audit fixture (bad): the self-test compiles this as a library object
// (-O2 -g -fPIC -fno-semantic-interposition) and must find exactly one
// dead export, plantedDeadExport(). No relocation names branchTarget()
// (an in-section call) or liveExport() (inlined away), yet both are
// live; dead_export_user.cc is the test-only user of the rest.
namespace rapid_fixture {

int plantedDeadExport(int x) { return x + 1; }

__attribute__((noinline)) int branchTarget(int x) { return x * 3 + 7; }

int liveExport(int x) { return x * 2; }

static int localCaller(int x) { return liveExport(x) + 1; }

int testOnlyExport(int x) { return localCaller(x) + branchTarget(x); }

struct Widget
{
    explicit Widget(int v);
    ~Widget();
    int v_;
};

Widget::Widget(int v) : v_(v) {}

Widget::~Widget() { v_ = 0; }

} // namespace rapid_fixture
