// Audit fixture: the bench-role user of the library fixtures, the
// root of the reachability walk.
namespace rapid_fixture {

struct Config
{
    int rows;
    int cols;
    double ghz;
};

int liveEntry(int x);
Config liveConfig();
int checkedHalf(int x);
int alreadyLive(int x);

int
benchMain(int x)
{
    return liveEntry(x) + liveConfig().cols + checkedHalf(x) +
           alreadyLive(x);
}

} // namespace rapid_fixture
