// Audit fixture (bad): live_user.cc, a bench object, calls
// checkedHalf(); only the test object dead_export_user.cc calls
// checkedThird(), so it is test-only. GCC splits each unlikely branch
// into a .cold fragment that ends in a call out to failOdd(). Before
// its relocation is applied, checkedHalf.cold's call reads as a branch
// to checkedThird.cold, the next fragment: that is no use of
// checkedThird.
namespace rapid_fixture {

[[noreturn]] __attribute__((cold)) void failOdd(int x);

int
checkedHalf(int x)
{
    if (__builtin_expect(x & 1, 0))
        failOdd(x);
    return x / 2;
}

int
checkedThird(int x)
{
    if (__builtin_expect(x % 3 != 0, 0))
        failOdd(x);
    return x / 3;
}

} // namespace rapid_fixture
