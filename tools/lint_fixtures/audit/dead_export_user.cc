// Audit fixture: the test-role user of the library fixtures. It calls
// Widget's constructor and destructor through their C1/D1 aliases,
// which must match the C2/D2 definitions by demangled name.
namespace rapid_fixture {

int testOnlyExport(int x);
int checkedThird(int x);
int testOnlyEntry(int x);
int testOnlyStep(int x);

struct Widget
{
    explicit Widget(int v);
    ~Widget();
    int v_;
};

struct Meter
{
    explicit Meter(int v);
    int v_;
};

int
useFixtureExports(int x)
{
    Widget w(x);
    Meter m(x);
    return testOnlyExport(w.v_) + checkedThird(x) + testOnlyEntry(x) +
           testOnlyStep(x) + m.v_;
}

} // namespace rapid_fixture
