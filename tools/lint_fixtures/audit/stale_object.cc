// Audit fixture (stale): the object of a source that was deleted,
// left behind in an incremental build tree. Nothing links it, so its
// export must not be reported while the source is gone.

namespace rapid_fixture {

int
staleExport(int x)
{
    return x * 3 + 1;
}

} // namespace rapid_fixture
