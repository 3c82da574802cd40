// Audit fixture: the test-role user of planted_dead_export.cc. It calls
// Widget's constructor and destructor through their C1/D1 aliases,
// which must match the C2/D2 definitions by demangled name.
namespace rapid_fixture {

int testOnlyExport(int x);

struct Widget
{
    explicit Widget(int v);
    ~Widget();
    int v_;
};

int useFixtureExports(int x)
{
    Widget w(x);
    return testOnlyExport(w.v_);
}

} // namespace rapid_fixture
