from vaeguard.taxonomy import (
    SYSCALL_TAXONOMY,
    TRACKED_CATEGORIES,
    TRACKED_SYSCALLS,
    SyscallCategory,
    classify_syscall,
)

EXPECTED_CATEGORY_SIZES = {
    SyscallCategory.PROCESS: 9,
    SyscallCategory.SET_USER_ID: 11,
    SyscallCategory.NETWORK: 6,
    SyscallCategory.FILE_DIR_ACCESS: 19,
    SyscallCategory.KERNEL_MODULE: 4,
    SyscallCategory.VIRTUALIZATION: 4,
    SyscallCategory.FD_REPLICATION: 3,
    SyscallCategory.FILE_ATTRIBUTE: 6,
    SyscallCategory.FS_MOUNT: 3,
    SyscallCategory.IOCTL: 1,
}


def test_tracked_set_size():
    assert len(TRACKED_SYSCALLS) == 66
    assert len(TRACKED_SYSCALLS) == len(set(TRACKED_SYSCALLS))


def test_every_tracked_name_has_a_real_category():
    for name in TRACKED_SYSCALLS:
        category = classify_syscall(name)
        assert category is not SyscallCategory.UNTRACKED, name
        assert category in TRACKED_CATEGORIES


def test_category_sizes():
    for category, expected in EXPECTED_CATEGORY_SIZES.items():
        members = [n for n, c in SYSCALL_TAXONOMY.items() if c is category]
        assert len(members) == expected, category


def test_known_classifications():
    assert classify_syscall("fork") is SyscallCategory.PROCESS
    assert classify_syscall("setuid") is SyscallCategory.SET_USER_ID
    assert classify_syscall("socket") is SyscallCategory.NETWORK
    assert classify_syscall("openat") is SyscallCategory.FILE_DIR_ACCESS
    assert classify_syscall("init_module") is SyscallCategory.KERNEL_MODULE
    assert classify_syscall("clone3") is SyscallCategory.VIRTUALIZATION
    assert classify_syscall("dup2") is SyscallCategory.FD_REPLICATION
    assert classify_syscall("fchownat") is SyscallCategory.FILE_ATTRIBUTE
    assert classify_syscall("umount2") is SyscallCategory.FS_MOUNT
    assert classify_syscall("ioctl") is SyscallCategory.IOCTL


def test_unknown_names_are_untracked_not_errors():
    assert classify_syscall("gettimeofday") is SyscallCategory.UNTRACKED
    assert classify_syscall("") is SyscallCategory.UNTRACKED
    assert classify_syscall("no_such_syscall") is SyscallCategory.UNTRACKED
    assert classify_syscall("__x64_sys_openat") is SyscallCategory.UNTRACKED


def test_lookup_is_stable():
    assert classify_syscall("execve") is classify_syscall("execve")
    for name in TRACKED_SYSCALLS:
        assert classify_syscall(name) is SYSCALL_TAXONOMY[name]


def test_alphabetical_schema_order():
    assert list(TRACKED_SYSCALLS) == sorted(TRACKED_SYSCALLS)
