// Audit fixture (bad): the self-test compiles this as a library object
// (-O2 -g -fPIC -fno-semantic-interposition). plantedDeadExport() is
// dead: nothing reaches it. dead_export_user.cc, a test object, is the
// only user of testOnlyExport() and of Widget, so both are test-only.
namespace rapid_fixture {

int plantedDeadExport(int x) { return x + 1; }

int testOnlyExport(int x) { return x * 5 - 2; }

struct Widget
{
    explicit Widget(int v);
    ~Widget();
    int v_;
};

Widget::Widget(int v) : v_(v) {}

Widget::~Widget() { v_ = 0; }

} // namespace rapid_fixture
