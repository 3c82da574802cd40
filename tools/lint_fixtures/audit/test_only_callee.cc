// Audit fixture (bad): scaledSum() is exported, and the only call to
// it is from testOnlyEntry() in this object, which only the test
// object dead_export_user.cc calls. A call from a test-only function
// is no library use: both are test-only.
namespace rapid_fixture {

__attribute__((noinline)) int scaledSum(int x) { return x * 3 + 7; }

int testOnlyEntry(int x) { return scaledSum(x) + 1; }

} // namespace rapid_fixture
